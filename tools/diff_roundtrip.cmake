# End-to-end CLI check: two snapshots at different thread counts diff
# cleanly and the compute kernels show up as movers.
execute_process(
  COMMAND ${REPORT} --app lulesh --ranks 1 --threads 1 --steps 3 --size 6
          --model knl --export snapshot --out t1.csv
  RESULT_VARIABLE rc1)
execute_process(
  COMMAND ${REPORT} --app lulesh --ranks 1 --threads 16 --steps 3 --size 6
          --model knl --export snapshot --out t16.csv
  RESULT_VARIABLE rc2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "mpisect-report failed (${rc1}/${rc2})")
endif()
execute_process(
  COMMAND ${DIFF} t1.csv t16.csv
  OUTPUT_VARIABLE diff_out
  RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "mpisect-diff failed (${rc3})")
endif()
if(NOT diff_out MATCHES "LagrangeNodal")
  message(FATAL_ERROR "diff output missing expected section:\n${diff_out}")
endif()
if(NOT diff_out MATCHES "biggest improvement")
  message(FATAL_ERROR "diff output missing headline:\n${diff_out}")
endif()
