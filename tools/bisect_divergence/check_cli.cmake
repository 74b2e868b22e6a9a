# Checks that bisect_divergence's flag parser stops before any run: `--help`
# exits 0 with the usage on stdout, and every malformed flag exits 1 with the
# usage on stderr.
#
#   cmake -DTOOL=<binary> -P tools/bisect_divergence/check_cli.cmake
function(expect_exit expected)
  execute_process(COMMAND "${TOOL}" ${ARGN}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT status STREQUAL "${expected}")
    message(FATAL_ERROR
      "${TOOL} ${ARGN}: exit '${status}', expected ${expected}\n${out}${err}")
  endif()
  if(expected EQUAL 0)
    set(usage_stream "${out}")
  else()
    set(usage_stream "${err}")
  endif()
  if(NOT usage_stream MATCHES "usage: ")
    message(FATAL_ERROR "${TOOL} ${ARGN}: no usage printed\n${out}${err}")
  endif()
endfunction()

expect_exit(0 --help)
expect_exit(1 --no-such-flag)
expect_exit(1 --arm-a-engine full)
expect_exit(1 --seed x)
expect_exit(1 --seed 12x)
expect_exit(1 --seed -1)
expect_exit(1 --oversub 0.5)
expect_exit(1 --oversub nan)
expect_exit(1 --reducers 0)
expect_exit(1 --input-mb 0)
expect_exit(1 --arm-b-scheduler bogus)
expect_exit(1 --seed)
