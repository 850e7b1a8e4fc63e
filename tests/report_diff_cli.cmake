# Command-line checks of examples/report_diff beyond the pinned diff
# (tests/data): --tolerance must be a fraction in [0, 1), and the perf
# gate and --rebase exit 0 or 1 on records written here.
#
# Invoked by ctest (tests/CMakeLists.txt) as:
#   cmake -DREPORT_DIFF=... -DDATA=... -DWORK=... -P report_diff_cli.cmake

function(expect_exit want)
    execute_process(COMMAND ${REPORT_DIFF} ${ARGN}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err
                    RESULT_VARIABLE rc)
    if(NOT rc STREQUAL want)
        message(FATAL_ERROR "report_diff ${ARGN}: exit ${rc}, want "
                "${want}\n${out}${err}")
    endif()
endfunction()

# A typo must not switch the gate off.
foreach(bad abc 5 1 -0.1 0.5x nan)
    expect_exit(2 --tolerance ${bad}
                ${DATA}/report_base.json ${DATA}/report_new.json)
endforeach()
expect_exit(2 --tolerance=
            ${DATA}/report_base.json ${DATA}/report_new.json)

file(MAKE_DIRECTORY ${WORK})
set(base ${WORK}/baseline.json)
set(results ${WORK}/results.json)
file(WRITE ${base} "[{\"bench\": \"smoke\", \"ticks_per_sec\": 100, "
                   "\"min_x_speedup\": 2}]\n")

# One record per case: exit code, ticks/s, metrics; then the gate's
# expected exit status at --tolerance 0.75 (rate bound 25).
foreach(case "0;100;\"x_speedup\": 2.5;0"   # in band
             "0;20;\"x_speedup\": 2.5;1"    # rate below the band
             "0;100;\"x_speedup\": 1.5;1"   # floor violated
             "3;100;\"x_speedup\": 2.5;1"   # bench exited nonzero
             "0;100;\"y\": 1;1")            # gated metric missing
    list(GET case 0 code)
    list(GET case 1 rate)
    list(GET case 2 metrics)
    list(GET case 3 want)
    file(WRITE ${results}
         "[{\"name\": \"smoke\", \"metrics\": {${metrics}}, \"host\": "
         "{\"exit_code\": ${code}, \"ticks_per_sec\": ${rate}}}]\n")
    expect_exit(${want} --tolerance 0.75 ${base} ${results})
endforeach()

# A baselined bench without a record fails the gate: the last
# results above pass a baseline of smoke alone, not one that also
# names a bench they lack.
file(WRITE ${WORK}/baseline_one.json
     "[{\"bench\": \"smoke\", \"ticks_per_sec\": 100}]\n")
expect_exit(0 --tolerance 0.75 ${WORK}/baseline_one.json ${results})
file(WRITE ${WORK}/baseline_two.json
     "[{\"bench\": \"smoke\", \"ticks_per_sec\": 100}, "
     "{\"bench\": \"gone\", \"ticks_per_sec\": 100}]\n")
expect_exit(1 --tolerance 0.75 ${WORK}/baseline_two.json ${results})

# --rebase rewrites the baseline from the last results written above.
expect_exit(0 --rebase ${WORK}/rebased.json ${results})
file(READ ${WORK}/rebased.json got)
string(CONCAT want "[\n  {\n    \"bench\": \"smoke\",\n"
       "    \"ticks_per_sec\": 100,\n    \"events_per_sec\": 0\n  }\n]\n")
if(NOT got STREQUAL want)
    message(FATAL_ERROR "--rebase wrote:\n${got}\nwant:\n${want}")
endif()
