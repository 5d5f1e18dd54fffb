# e2e_determinism: runs every smoke workload three times with one seed —
# twice untraced and once traced — and fails unless the three runs print
# identical DIGEST lines.
#   cmake -DBBV_E2E=<bbv_e2e> -DWORK_DIR=<dir> -P determinism.cmake
set(reference "")
foreach(run plain_a plain_b traced)
  set(args --workload=all --smoke --seed=11)
  if(run STREQUAL "traced")
    list(APPEND args "--trace=${WORK_DIR}/determinism-trace.json")
  endif()
  execute_process(COMMAND "${BBV_E2E}" ${args}
                  OUTPUT_VARIABLE output
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${run} run failed (exit ${code}):\n${output}")
  endif()
  string(REGEX MATCHALL "DIGEST [^\n]*" digests "${output}")
  list(LENGTH digests count)
  if(NOT count EQUAL 4)
    message(FATAL_ERROR "${run} run printed ${count} digests, expected 4")
  endif()
  if(reference STREQUAL "")
    set(reference "${digests}")
  elseif(NOT digests STREQUAL reference)
    message(FATAL_ERROR
            "${run} run digests differ:\n${digests}\nexpected:\n${reference}")
  endif()
endforeach()
message(STATUS "digests identical across runs: ${reference}")
