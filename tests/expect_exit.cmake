# Runs a command and passes only if it exits with exactly EXIT (a
# WILL_FAIL test would accept any nonzero status, a crash included)
# and its stdout matches every regex in the comma-separated
# STDOUT_MATCHES.
#
#   cmake -DEXIT=2 [-DSTDOUT_MATCHES=re1,re2] -P expect_exit.cmake \
#         -- program args...
set(cmd)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT)
    message(FATAL_ERROR "exit status ${rc}, want ${EXIT}: ${cmd}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
string(REPLACE "," ";" matches "${STDOUT_MATCHES}")
foreach(re IN LISTS matches)
    if(NOT out MATCHES "${re}")
        message(FATAL_ERROR "stdout lacks /${re}/:\n${out}")
    endif()
endforeach()
