# Run a command; require its exit code and a pattern in its output.
# (ctest's PASS_REGULAR_EXPRESSION would ignore the exit code.)
#
#   cmake -DEXIT=<code> -DMATCH=<regex> -P expect_exit.cmake -- CMD ARG...

math(EXPR _last "${CMAKE_ARGC} - 1")
set(_cmd "")
set(_after_dashes FALSE)
foreach(_i RANGE ${_last})
    if(_after_dashes)
        list(APPEND _cmd "${CMAKE_ARGV${_i}}")
    elseif("${CMAKE_ARGV${_i}}" STREQUAL "--")
        set(_after_dashes TRUE)
    endif()
endforeach()

execute_process(COMMAND ${_cmd}
    RESULT_VARIABLE _rc OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
if(NOT _rc STREQUAL "${EXIT}")
    message(FATAL_ERROR "exit ${_rc}, expected ${EXIT}:\n${_out}${_err}")
endif()
if(NOT "${_out}${_err}" MATCHES "${MATCH}")
    message(FATAL_ERROR "output does not match '${MATCH}':\n${_out}${_err}")
endif()
