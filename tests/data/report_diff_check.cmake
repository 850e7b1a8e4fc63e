# Pinned-output check for examples/report_diff: diff the two committed
# sample reports and require the Markdown to match compare_expected.md
# byte for byte, and the exit status to be 1 (the samples contain a
# seeded regression).
#
# Invoked by ctest (tests/CMakeLists.txt) as:
#   cmake -DREPORT_DIFF=... -DDATA=... -P report_diff_check.cmake

execute_process(
    COMMAND ${REPORT_DIFF}
            ${DATA}/report_base.json ${DATA}/report_new.json
    OUTPUT_VARIABLE got
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "report_diff exited ${rc}, expected 1 (the "
            "sample reports seed a regression): ${err}")
endif()

file(READ ${DATA}/compare_expected.md want)
if(NOT got STREQUAL want)
    message(FATAL_ERROR "report_diff output drifted from "
            "compare_expected.md.\n--- got ---\n${got}\n--- want ---\n"
            "${want}\nIf the change is intentional, regenerate with:\n"
            "  build/examples/report_diff "
            "tests/data/report_base.json tests/data/report_new.json "
            "> tests/data/compare_expected.md")
endif()
