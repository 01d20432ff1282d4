/**
 * @file
 * ILLIXR_CHECK: a precondition check that survives NDEBUG.
 *
 * `assert` vanishes in Release and RelWithDebInfo builds, so a shape
 * mismatch on a public entry point would read or write out of bounds
 * silently. ILLIXR_CHECK costs one predictable branch and throws
 * std::invalid_argument naming the failed condition and its site.
 */

#pragma once

#include <stdexcept>
#include <string>

namespace illixr {
namespace detail {

[[noreturn]] inline void
checkFailed(const char *cond, const char *msg, const char *file, int line)
{
    throw std::invalid_argument(std::string(msg) + " (" + cond + ") at " +
                                file + ":" + std::to_string(line));
}

} // namespace detail
} // namespace illixr

/** Throw std::invalid_argument with @p msg unless @p cond holds. */
#define ILLIXR_CHECK(cond, msg)                                            \
    do {                                                                   \
        if (!(cond))                                                       \
            ::illixr::detail::checkFailed(#cond, msg, __FILE__, __LINE__); \
    } while (0)
