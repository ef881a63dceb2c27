# Runs one command and compares what it produced, byte for byte, with a
# committed golden file (DESIGN.md §8):
#
#   cmake -DGOLDEN=<file> -DWORKDIR=<dir> -P tools/golden_check.cmake -- <program> [args...]
#
# The command runs in WORKDIR, which is emptied first. Its output is its
# stdout followed by a "<sha256>  <file>" line, as `sha256sum` prints it,
# for every file the run wrote there, in name order. A non-zero exit or any
# difference from GOLDEN fails; the output stays in WORKDIR/actual, and the
# message gives the commands that show or re-capture it. There is no
# tolerance.
cmake_minimum_required(VERSION 3.20)

set(command "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT GOLDEN OR NOT WORKDIR OR NOT command)
  message(FATAL_ERROR "usage: cmake -DGOLDEN=<file> -DWORKDIR=<dir> -P golden_check.cmake -- <command>")
endif()

set(actual "${WORKDIR}/actual")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND ${command}
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_FILE "${actual}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "golden: `${command}` exited with ${status}")
endif()

file(GLOB_RECURSE written LIST_DIRECTORIES false RELATIVE "${WORKDIR}" "${WORKDIR}/*")
list(REMOVE_ITEM written actual)
list(SORT written)
foreach(name IN LISTS written)
  file(SHA256 "${WORKDIR}/${name}" digest)
  file(APPEND "${actual}" "${digest}  ${name}\n")
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${actual}"
  RESULT_VARIABLE differs OUTPUT_QUIET ERROR_QUIET)
if(differs)
  message(FATAL_ERROR "golden: output differs from ${GOLDEN}\n"
    "  show:        diff -u ${GOLDEN} ${actual}\n"
    "  re-capture:  cp ${actual} ${GOLDEN}")
endif()
