# Run ${TOOL} with the space-separated ${ARGS} and require a usage
# error: exit status 2 and no sign that the tool started its workload
# (its "built ... tris" progress line).
#
#   cmake -DTOOL=path/to/tool ["-DARGS=a b"] -P expect_usage_error.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${status}\n${out}${err}")
endif()
if(out MATCHES "built ")
    message(FATAL_ERROR "the tool built its workload before failing\n${out}")
endif()
message(STATUS "exit 2 as expected: ${err}")
