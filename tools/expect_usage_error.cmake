# Run ${TOOL} with the space-separated ${ARGS} and require it to fail
# with exit status ${EXIT} (default 2, a usage error) and no sign that
# the tool started its workload (its "built ... tris" progress line).
#
#   cmake -DTOOL=path/to/tool ["-DARGS=a b"] [-DEXIT=n] \
#         -P expect_usage_error.cmake

if(NOT DEFINED EXIT)
    set(EXIT 2)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL EXIT)
    message(FATAL_ERROR "expected exit ${EXIT}, got ${status}\n${out}${err}")
endif()
if(out MATCHES "built ")
    message(FATAL_ERROR "the tool built its workload before failing\n${out}")
endif()
message(STATUS "exit ${EXIT} as expected: ${err}")
