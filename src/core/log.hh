/**
 * @file
 * Logging and error-reporting helpers for the CMD framework.
 *
 * Follows the gem5 convention: panic() for "this is a bug in the
 * framework or design" (raised as a catchable KernelFault of kind
 * DesignError — see core/fault.hh), fatal() for "the user configured
 * something impossible, exit cleanly", warn()/inform() for status.
 */
#pragma once

#include <cstdarg>
#include <cstdint>
#include <string>

namespace cmd {

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
std::string vstrfmt(const char *fmt, va_list ap);

/**
 * Report an internal invariant violation and abort. Use for
 * conditions that indicate a bug in the framework or in a design
 * built on it, never for user-configuration errors.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Non-fatal diagnostic for suspicious but tolerable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Status message for the user. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace cmd
