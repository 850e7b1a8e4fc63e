# A bench whose output file cannot be written must exit 1 and claim no
# success. /dev/full fails every write when the file is flushed; the
# results file goes through a temp file, blocked here by a directory,
# and must keep its old contents. (/dev/full is never the results
# file: that file is read first, and /dev/full reads as endless
# zeros.)
#
# Invoked by ctest (tests/CMakeLists.txt) as:
#   cmake -DBENCH=... -DWORK=... -P bench_write_check.cmake

function(expect_failure)
    execute_process(COMMAND ${BENCH} --quick ${ARGN}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1 OR out MATCHES "wrote|-> ")
        message(FATAL_ERROR "${BENCH} --quick ${ARGN}: exit ${rc}, want "
                "1 and no success line\n${out}${err}")
    endif()
endfunction()

if(EXISTS /dev/full)
    expect_failure(--no-json --report-out /dev/full)
    expect_failure(--no-json --golden-out /dev/full)
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK}/results.json.tmp)
file(WRITE ${WORK}/results.json "[]\n")
expect_failure(--out ${WORK}/results.json)
file(READ ${WORK}/results.json kept)
if(NOT kept STREQUAL "[]\n")
    message(FATAL_ERROR "a failed append changed the results file:\n"
            "${kept}")
endif()
