# Runs PROGRAM in the current directory with the arguments and checks
# that SPEC sets (pm_add_program_test in cmake/ProgramTest.cmake writes
# it), and fails naming every check that does not hold. Usage:
#   cmake -DPROGRAM=<exe> -DSPEC=<file> -P check_program.cmake
# SPEC sets ARGS, EXIT, OUTPUT (pairs of a written file, stdout.txt for
# stdout, and its golden), MATCH, NOT_MATCH and ABSENT.
cmake_minimum_required(VERSION 3.16)
include("${SPEC}")

set(written stdout.txt stderr.txt ${ABSENT})
set(pairs ${OUTPUT})
while(pairs)
  list(POP_FRONT pairs file golden)
  list(APPEND written "${file}")
endwhile()
file(REMOVE ${written})

execute_process(COMMAND "${PROGRAM}" ${ARGS}
  OUTPUT_FILE stdout.txt ERROR_FILE stderr.txt RESULT_VARIABLE status)

set(failures "")
if(NOT "${status}" STREQUAL "${EXIT}")
  list(APPEND failures "exited with ${status}, expected ${EXIT}")
endif()

set(pairs ${OUTPUT})
while(pairs)
  list(POP_FRONT pairs file golden)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${file}" "${golden}" RESULT_VARIABLE differs)
  if(differs)
    get_filename_component(path "${file}" ABSOLUTE)
    list(APPEND failures "${path} differs from ${golden}")
  endif()
endwhile()

file(READ stdout.txt out)
file(READ stderr.txt err)
foreach(re IN LISTS MATCH)
  if(NOT "${out}${err}" MATCHES "${re}")
    list(APPEND failures "no output matches '${re}'")
  endif()
endforeach()
foreach(re IN LISTS NOT_MATCH)
  if("${out}${err}" MATCHES "${re}")
    list(APPEND failures "output matches '${re}'")
  endif()
endforeach()
foreach(file IN LISTS ABSENT)
  get_filename_component(path "${file}" ABSOLUTE)
  if(EXISTS "${path}")
    list(APPEND failures "wrote ${path}")
  endif()
endforeach()

if(failures)
  list(JOIN ARGS " " command)
  list(JOIN failures "\n  " text)
  if(err)
    string(PREPEND err "stderr:\n")
  endif()
  message(FATAL_ERROR "${PROGRAM} ${command}\n  ${text}\n${err}")
endif()
