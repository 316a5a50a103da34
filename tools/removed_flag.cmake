# A removed flag spelling is an unknown option: nonzero exit and a one-line
# error naming it, never a silent alias.
function(expect_unknown tool option)
  execute_process(COMMAND ${tool} --${option} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${tool} accepted the removed --${option} flag")
  endif()
  if(NOT "${out}${err}" MATCHES "unknown option '--${option}'")
    message(FATAL_ERROR "no unknown-option error for --${option}:\n${err}")
  endif()
endfunction()

expect_unknown(${REPORT} machine ideal)
expect_unknown(${REPORT} match legacy)
expect_unknown(${CHECK} timeout-ms 5)
