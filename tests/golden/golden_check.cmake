# Golden check of a figure bench's simulated outputs: run the bench at
# --quick with --golden-out and require every run's line to equal the
# committed tests/golden/<bench>.quick.json (ticks, phases, verdict,
# iterations, abort point, busy/sync/mem, stats and memory hashes).
#
# Invoked by ctest (tests/CMakeLists.txt) as:
#   cmake -DBENCH=... -DGOLDEN=... -DOUT=... [-DOBS=<sinks>] \
#         -P golden_check.cmake
# With OBS the bench records those observability sinks (writing them
# nowhere), and the outputs must still equal the same golden.

cmake_minimum_required(VERSION 3.16)

set(obs_args "")
if(OBS)
    set(obs_args --obs ${OBS})
endif()

execute_process(
    COMMAND ${BENCH} --quick --no-json ${obs_args} --golden-out ${OUT}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited ${rc}: ${err}")
endif()

file(READ ${OUT} got)
file(READ ${GOLDEN} want)
if(got STREQUAL want)
    return()
endif()

# Name the runs that differ. Brackets are list syntax in CMake, so
# they are swapped out before the files split into lines.
foreach(side got want)
    string(REPLACE "[" "(" ${side} "${${side}}")
    string(REPLACE "]" ")" ${side} "${${side}}")
    string(REPLACE ";" "," ${side} "${${side}}")
    string(REPLACE "\n" ";" ${side} "${${side}}")
endforeach()
list(LENGTH got n_got)
list(LENGTH want n_want)
set(diffs "")
if(NOT n_got EQUAL n_want)
    string(APPEND diffs "${n_got} lines, golden has ${n_want}\n")
endif()
math(EXPR last "${n_got} - 1")
foreach(i RANGE ${last})
    if(i LESS n_want)
        list(GET got ${i} g)
        list(GET want ${i} w)
        if(NOT g STREQUAL w)
            string(APPEND diffs "--- got:  ${g}\n+++ want: ${w}\n")
        endif()
    endif()
endforeach()
message(FATAL_ERROR "the model's outputs drifted from ${GOLDEN} "
        "(brackets shown as parentheses):\n${diffs}"
        "If the change is intentional, regenerate with:\n"
        "  ${BENCH} --quick --no-json --golden-out ${GOLDEN}\n"
        "and give the reason in CHANGES.md.")
