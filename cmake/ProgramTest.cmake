# pm_add_program_test(<name> <target> [ARGS <arg>...] [EXIT <code>]
#                     [GOLDEN <data file>] [OUTPUT <file> <data file>]...
#                     [MATCH <regex>...] [NOT_MATCH <regex>...]
#                     [ABSENT <file>...] [FULL])
#
# A ctest that runs <target> with ARGS in a directory of its own under
# checks/ and passes only if
#   * it exits with EXIT (default 0), the exact code;
#   * its stdout equals GOLDEN, and each written OUTPUT file equals its
#     golden, byte for byte (goldens are named under tests/data);
#   * every MATCH regex matches its stdout or stderr and no NOT_MATCH
#     regex does (CMake regex syntax; ^ anchors at the start of stdout);
#   * it leaves none of the ABSENT files.
# FULL puts the test in the full set, which only `ctest -C full` runs
# (label `full`). The checks run in cmake/check_program.cmake.
set(PM_CHECK_PROGRAM ${CMAKE_CURRENT_LIST_DIR}/check_program.cmake)

function(pm_add_program_test name target)
  cmake_parse_arguments(PARSE_ARGV 2 T "FULL" "EXIT;GOLDEN"
    "ARGS;OUTPUT;MATCH;NOT_MATCH;ABSENT")
  if(NOT DEFINED T_EXIT)
    set(T_EXIT 0)
  endif()
  set(dir ${CMAKE_CURRENT_BINARY_DIR}/checks/${name})
  file(MAKE_DIRECTORY ${dir})

  # GOLDEN is the golden of the runner's stdout.txt.
  set(pairs ${T_OUTPUT})
  if(T_GOLDEN)
    list(PREPEND pairs stdout.txt ${T_GOLDEN})
  endif()
  set(T_OUTPUT "")
  while(pairs)
    list(POP_FRONT pairs file golden)
    list(APPEND T_OUTPUT ${file} ${PM_TEST_DATA_DIR}/${golden})
  endwhile()
  set(spec "set(EXIT ${T_EXIT})\n")
  foreach(var ARGS OUTPUT MATCH NOT_MATCH ABSENT)
    string(APPEND spec "set(${var}")
    foreach(value IN LISTS T_${var})
      string(APPEND spec " [==[${value}]==]")
    endforeach()
    string(APPEND spec ")\n")
  endforeach()
  file(WRITE ${dir}/check.cmake "${spec}")

  set(configurations "")
  if(T_FULL)
    set(configurations CONFIGURATIONS full)
  endif()
  add_test(NAME ${name} ${configurations}
    COMMAND ${CMAKE_COMMAND} -DPROGRAM=$<TARGET_FILE:${target}>
      -DSPEC=${dir}/check.cmake -P ${PM_CHECK_PROGRAM}
    WORKING_DIRECTORY ${dir})
  if(T_FULL)
    set_tests_properties(${name} PROPERTIES LABELS full)
  endif()
endfunction()
