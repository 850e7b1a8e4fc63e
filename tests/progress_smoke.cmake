# The live dashboard, run by its path as CI and EXPERIMENTS.md run
# it, on the status file of a real campaign: one frame that reports
# the campaign done. A script committed without its execute bit
# fails here.
#
# Invoked by ctest (tests/CMakeLists.txt) as:
#   cmake -DBENCH=... -DTOP=... -DWORK=... -P progress_smoke.cmake

file(MAKE_DIRECTORY ${WORK})
set(status ${WORK}/status.json)
file(REMOVE ${status})

execute_process(COMMAND ${BENCH} --quick --no-json --jobs 2
                        --status-out ${status}
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${BENCH} --status-out: exit ${rc}\n${err}")
endif()

execute_process(COMMAND ${TOP} --once ${status}
                OUTPUT_VARIABLE frame ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${TOP} --once: exit ${rc}\n${frame}${err}")
endif()
if(NOT frame MATCHES "\n  done\\.")
    message(FATAL_ERROR "no 'done.' in the final frame:\n${frame}")
endif()
