# Writes OUT, a header defining CRAFTY_BENCH_GIT_SHA as the git HEAD of
# SRC, suffixed "-dirty" when tracked files differ from it, or
# "unavailable" outside a git checkout. Runs at build time, so the stamp
# names the tree the bench binary was built from. OUT is rewritten only
# when the sha changes, so an unchanged tree recompiles nothing.
#
#   cmake -DGIT=<git> -DSRC=<source dir> -DOUT=<header> -P GitSha.cmake

set(Sha "unavailable")
if(GIT)
  execute_process(COMMAND "${GIT}" -C "${SRC}" rev-parse HEAD
    OUTPUT_VARIABLE Head RESULT_VARIABLE Rc
    OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
  if(Rc EQUAL 0 AND NOT Head STREQUAL "")
    set(Sha "${Head}")
    execute_process(COMMAND "${GIT}" --no-optional-locks -C "${SRC}" status
                            --porcelain --untracked-files=no
      OUTPUT_VARIABLE Changes RESULT_VARIABLE Rc ERROR_QUIET)
    if(NOT Rc EQUAL 0 OR NOT Changes STREQUAL "")
      string(APPEND Sha "-dirty")
    endif()
  endif()
endif()

set(Content "#define CRAFTY_BENCH_GIT_SHA \"${Sha}\"\n")
set(Old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" Old)
endif()
if(NOT Old STREQUAL Content)
  file(WRITE "${OUT}" "${Content}")
endif()
