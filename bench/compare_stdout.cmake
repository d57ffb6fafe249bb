# Runs PROGRAM with the space-separated ARGS, writes its stdout to OUTPUT
# and fails unless the program exits 0 and OUTPUT equals GOLDEN byte for
# byte. Usage:
#   cmake -DPROGRAM=<exe> "-DARGS=<a b>" -DGOLDEN=<file> -DOUTPUT=<file>
#         -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  OUTPUT_FILE "${OUTPUT}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${OUTPUT}" "${GOLDEN}" RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}; "
    "see ${OUTPUT}")
endif()
