# Checks that a bench binary's flag parser stops before any work: `--help`
# exits 0 with the usage on stdout, and an unknown flag or a flag missing
# its value exits 2 with the usage on stderr. No run may leave a JSON file
# behind. Each `--one` value in ONE_VALUES (fabric_scaling) must exit 2 too.
#
#   cmake -DBENCH=<binary> -DWORK_DIR=<scratch dir> [-DONE_VALUES=a;b]
#         -P bench/check_cli.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_exit expected)
  execute_process(COMMAND "${BENCH}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT status STREQUAL "${expected}")
    message(FATAL_ERROR
      "${BENCH} ${ARGN}: exit '${status}', expected ${expected}\n${out}${err}")
  endif()
  if(expected EQUAL 0)
    set(usage_stream "${out}")
  else()
    set(usage_stream "${err}")
  endif()
  if(NOT usage_stream MATCHES "usage: ")
    message(FATAL_ERROR "${BENCH} ${ARGN}: no usage printed\n${out}${err}")
  endif()
  file(GLOB_RECURSE written "${WORK_DIR}/*.json")
  if(written)
    message(FATAL_ERROR "${BENCH} ${ARGN}: wrote ${written}")
  endif()
endfunction()

expect_exit(0 --help)
expect_exit(0 --smoke --help)
expect_exit(2 --json-out out.json --no-such-flag)
expect_exit(2 --smoke extra)
expect_exit(2 --json-out)
foreach(value IN LISTS ONE_VALUES)
  expect_exit(2 --json-out out.json --one "${value}")
endforeach()
