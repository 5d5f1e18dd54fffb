# Detection-count regression check for bench/ext_drift_scenarios: runs the
# fast suite and fails when any scenario's detected, detection_delay,
# false_alarm_rate or alarms differs from the committed baseline, or when
# the two runs do not cover the same scenarios.
#
#   cmake -DBENCH=<ext_drift_scenarios binary> \
#         -DBASELINE=<BENCH_ext_drift_scenarios.json> \
#         -DOUTPUT=<scratch json path> -P ext_drift_scenarios_check.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(required BENCH BASELINE OUTPUT)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "missing -D${required}=...")
  endif()
endforeach()

execute_process(
  COMMAND "${BENCH}" --fast "--json=${OUTPUT}"
  RESULT_VARIABLE bench_exit
  OUTPUT_VARIABLE bench_stdout
  ERROR_VARIABLE bench_stderr)
if(NOT bench_exit EQUAL 0)
  message(FATAL_ERROR "ext_drift_scenarios --fast exited with ${bench_exit}\n"
                      "${bench_stdout}${bench_stderr}")
endif()

# Sets <prefix>_names to the scenario names of `json`, in order, and
# <prefix>_<name>_<field> to each compared field.
function(read_scenarios json prefix)
  string(JSON count LENGTH "${json}" results)
  set(names "")
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON name GET "${json}" results ${i} name)
      if(NOT name MATCHES "^scenario_")
        continue()
      endif()
      list(APPEND names "${name}")
      foreach(field detected detection_delay false_alarm_rate alarms)
        string(JSON value GET "${json}" results ${i} ${field})
        set(${prefix}_${name}_${field} "${value}" PARENT_SCOPE)
      endforeach()
    endforeach()
  endif()
  set(${prefix}_names "${names}" PARENT_SCOPE)
endfunction()

file(READ "${BASELINE}" baseline_json)
file(READ "${OUTPUT}" run_json)
read_scenarios("${baseline_json}" baseline)
read_scenarios("${run_json}" run)

set(mismatches "")
if(NOT baseline_names STREQUAL run_names)
  string(APPEND mismatches
         "  scenarios: baseline [${baseline_names}] vs run [${run_names}]\n")
else()
  foreach(name IN LISTS baseline_names)
    foreach(field detected detection_delay false_alarm_rate alarms)
      set(expected "${baseline_${name}_${field}}")
      set(actual "${run_${name}_${field}}")
      if(NOT expected STREQUAL actual)
        string(APPEND mismatches
               "  ${name}.${field}: baseline ${expected} vs run ${actual}\n")
      endif()
    endforeach()
  endforeach()
endif()

if(NOT mismatches STREQUAL "")
  message(FATAL_ERROR "ext_drift_scenarios --fast differs from ${BASELINE}:\n"
                      "${mismatches}")
endif()
list(LENGTH baseline_names scenario_count)
message(STATUS "ext_drift_scenarios: ${scenario_count} scenarios match the "
               "committed detection counts")
