# A removed flag spelling is an unknown option: nonzero exit and a one-line
# error naming it, never a silent alias.
execute_process(COMMAND ${REPORT} --machine ideal
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "mpisect-report accepted the removed --machine flag")
endif()
if(NOT "${out}${err}" MATCHES "unknown option '--machine'")
  message(FATAL_ERROR "no unknown-option error for --machine:\n${err}")
endif()
