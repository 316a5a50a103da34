# A fault-plan kill aborts the world; stderr must be the same bytes on
# every run. Ranks that unwind because the world aborted log nothing, so
# the log does not follow the wall-clock order in which they unwind.
foreach(i 1 2 3)
  execute_process(
    COMMAND ${CHECK} --app convolution --ranks 8 --steps 10
            --faults "kill:rank=1,at=0.001"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err${i})
  if(rc EQUAL 0)
    message(FATAL_ERROR "run ${i}: the injected kill was not reported")
  endif()
  # Sanitizer builds print a banner stamped with the process id; it is the
  # sanitizer runtime's, not the program's.
  string(REGEX REPLACE "==[0-9]+==[^\n]*\n" "" err${i} "${err${i}}")
endforeach()
if(NOT err1 STREQUAL err2 OR NOT err1 STREQUAL err3)
  message(FATAL_ERROR "stderr differs across runs:\n--- 1\n${err1}"
                      "--- 2\n${err2}--- 3\n${err3}")
endif()
