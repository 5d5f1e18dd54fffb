# Value regression check for a bench binary's JSON report: runs the fast
# suite and fails when any selected result's compared fields differ from the
# committed baseline, or when the two runs do not select the same results
# (by name, in order).
#
#   cmake -DBENCH=<bench binary> -DBASELINE=<committed BENCH_*.json> \
#         -DOUTPUT=<scratch json path> -DRESULTS=<result-name regex> \
#         -DFIELDS=<comma-separated field names> -P bench_values_check.cmake
#
# A field a result does not carry reads as <absent>, so results of different
# shapes can share one field list: baseline and run must agree on whether
# each field is there and on its value.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(required BENCH BASELINE OUTPUT RESULTS FIELDS)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "missing -D${required}=...")
  endif()
endforeach()
string(REPLACE "," ";" fields "${FIELDS}")
get_filename_component(bench_name "${BENCH}" NAME_WE)

execute_process(
  COMMAND "${BENCH}" --fast "--json=${OUTPUT}"
  RESULT_VARIABLE bench_exit
  OUTPUT_VARIABLE bench_stdout
  ERROR_VARIABLE bench_stderr)
if(NOT bench_exit EQUAL 0)
  message(FATAL_ERROR "${bench_name} --fast exited with ${bench_exit}\n"
                      "${bench_stdout}${bench_stderr}")
endif()

# Sets <prefix>_names to the names of the results of `json` that match
# RESULTS, in order, and <prefix>_<index in names>_<field> to each compared
# field.
function(read_results json prefix)
  string(JSON count LENGTH "${json}" results)
  set(names "")
  set(selected 0)
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON name GET "${json}" results ${i} name)
      if(NOT name MATCHES "${RESULTS}")
        continue()
      endif()
      list(APPEND names "${name}")
      foreach(field IN LISTS fields)
        string(JSON value ERROR_VARIABLE missing
               GET "${json}" results ${i} ${field})
        if(missing)
          set(value "<absent>")
        endif()
        set(${prefix}_${selected}_${field} "${value}" PARENT_SCOPE)
      endforeach()
      math(EXPR selected "${selected} + 1")
    endforeach()
  endif()
  set(${prefix}_names "${names}" PARENT_SCOPE)
  set(${prefix}_count ${selected} PARENT_SCOPE)
endfunction()

file(READ "${BASELINE}" baseline_json)
file(READ "${OUTPUT}" run_json)
read_results("${baseline_json}" baseline)
read_results("${run_json}" run)

set(mismatches "")
if(NOT baseline_names STREQUAL run_names)
  string(APPEND mismatches
         "  results: baseline [${baseline_names}] vs run [${run_names}]\n")
elseif(baseline_count GREATER 0)
  math(EXPR last "${baseline_count} - 1")
  foreach(i RANGE ${last})
    list(GET baseline_names ${i} name)
    foreach(field IN LISTS fields)
      set(expected "${baseline_${i}_${field}}")
      set(actual "${run_${i}_${field}}")
      if(NOT expected STREQUAL actual)
        string(APPEND mismatches
               "  ${name}.${field}: baseline ${expected} vs run ${actual}\n")
      endif()
    endforeach()
  endforeach()
endif()

if(NOT mismatches STREQUAL "")
  message(FATAL_ERROR "${bench_name} --fast differs from ${BASELINE}:\n"
                      "${mismatches}")
endif()
message(STATUS "${bench_name}: ${baseline_count} results match the "
               "committed ${FIELDS}")
