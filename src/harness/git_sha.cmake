# Writes the build's git revision into a header for the provenance
# manifests. Run at build time (not configure time) so the SHA names the
# tree actually compiled:
#
#   cmake -DSOURCE_DIR=<checkout> -DOUTPUT=<header> -P git_sha.cmake
#
# The revision is `git rev-parse HEAD`, suffixed with "-dirty" when a
# tracked file differs from HEAD, or "unknown" outside a git checkout.
# The header is rewritten only when its content changes, so a no-op
# rebuild recompiles nothing.

execute_process(
    COMMAND git rev-parse HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE sha
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE sha_result)
if(sha_result EQUAL 0)
    execute_process(
        COMMAND git diff --quiet HEAD --
        WORKING_DIRECTORY ${SOURCE_DIR}
        OUTPUT_QUIET
        ERROR_QUIET
        RESULT_VARIABLE dirty_result)
    if(NOT dirty_result EQUAL 0)
        string(APPEND sha "-dirty")
    endif()
else()
    set(sha "unknown")
endif()

set(content "// Generated by git_sha.cmake at build time; do not edit.\n")
string(APPEND content "#pragma once\n#define GDS_GIT_SHA \"${sha}\"\n")
if(EXISTS ${OUTPUT})
    file(READ ${OUTPUT} old)
else()
    set(old "")
endif()
if(NOT old STREQUAL content)
    file(WRITE ${OUTPUT} "${content}")
endif()
