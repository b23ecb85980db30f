# The benchmark spine at smoke scale, run as a ctest via `cmake -P`: for
# each workload, `spine setup` writes the inputs, `spine run` checks every
# operation against its reference result, and `spine trace` times the
# layers and applies the spine's correctness gate (for the check
# workloads, that the layer calls cover the check's time). The test fails
# on a nonzero exit of any command, or unless both `run` and `trace`
# report "correct": true and "failed": 0. Goldens (run.py's
# check_goldens) are not compared here.
#
# Inputs (all -D, absolute paths):
#   SPINE     the spine binary (root target `spine`)
#   WORK_DIR  scratch directory for the generated inputs; removed on success

foreach(var SPINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
foreach(workload bigdb manyrules deep join)
  set(dir ${WORK_DIR}/${workload})
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${SPINE} setup --workload=${workload} --dir=${dir}
            --scale=smoke --seed=20230322 --repeat=1 --seconds=0
    RESULT_VARIABLE setup_result
    OUTPUT_VARIABLE setup_out
    ERROR_VARIABLE setup_err)
  if(NOT setup_result EQUAL 0)
    message(FATAL_ERROR "spine setup --workload=${workload} exited "
                        "${setup_result}:\n${setup_out}${setup_err}")
  endif()
  execute_process(
    COMMAND ${SPINE} run --workload=${workload} --dir=${dir} --scale=smoke
            --seconds=1
    RESULT_VARIABLE run_result
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "spine run --workload=${workload} exited "
                        "${run_result}:\n${run_out}${run_err}")
  endif()
  execute_process(
    COMMAND ${SPINE} trace --workload=${workload} --dir=${dir} --scale=smoke
            --seconds=1 --trace-out=${dir}/trace.json
    RESULT_VARIABLE trace_result
    OUTPUT_VARIABLE trace_out
    ERROR_VARIABLE trace_err)
  if(NOT trace_result EQUAL 0)
    message(FATAL_ERROR "spine trace --workload=${workload} exited "
                        "${trace_result}:\n${trace_out}${trace_err}")
  endif()
  foreach(step run trace)
    if(NOT ${step}_out MATCHES "\"correct\": true" OR
       NOT ${step}_out MATCHES "\"failed\": 0[,}]")
      message(FATAL_ERROR "spine ${step} --workload=${workload} fails its "
                          "correctness gate:\n${${step}_out}${${step}_err}")
    endif()
  endforeach()
  message(STATUS "spine smoke ${workload}: ok")
endforeach()
file(REMOVE_RECURSE ${WORK_DIR})
