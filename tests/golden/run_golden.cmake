# Golden-output check for one example scenario under one event-queue kind.
#
#   cmake -DRUNNER=<scenario_runner> -DINI=<scenario.ini> -DQUEUE=<kind>
#         -DGOLDEN=<expected stdout> -DWORKDIR=<scratch dir> -P run_golden.cmake
#
# Copies the scenario into a fresh WORKDIR with its [scenario] `queue =`
# line set to QUEUE (inserted when the file has none), runs the runner
# there, and fails unless it exits 0 with stdout byte-identical to GOLDEN.
# Every queue kind must print the same output: the golden file is the
# determinism contract across pending-set structures.
foreach(var RUNNER INI QUEUE GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: ${var} is not set")
  endif()
endforeach()

file(READ "${INI}" text)
string(REGEX REPLACE "\n[ \t]*queue[ \t]*=[^\n]*" "" text "\n${text}")
string(REGEX REPLACE "^\n" "" text "${text}")
string(FIND "${text}" "[scenario]\n" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${INI} has no [scenario] section")
endif()
string(REPLACE "[scenario]\n" "[scenario]\nqueue = ${QUEUE}\n" text "${text}")

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
get_filename_component(name "${INI}" NAME)
file(WRITE "${WORKDIR}/${name}" "${text}")

execute_process(COMMAND "${RUNNER}" "${name}"
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scenario_runner exited with ${rc} on ${name} (queue = ${QUEUE}):\n${err}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  file(WRITE "${WORKDIR}/actual.out" "${out}")
  message(FATAL_ERROR "${name} (queue = ${QUEUE}) differs from ${GOLDEN}\n"
                      "--- expected\n${expected}--- actual (${WORKDIR}/actual.out)\n${out}")
endif()
