#include "core/log.hh"

#include <cstdio>
#include <cstdlib>

#include "core/fault.hh"

namespace cmd {

std::string
vstrfmt(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out(n > 0 ? n : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), n + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    // Design-invariant violations surface as structured, catchable
    // faults: they end System::run with full diagnostics, and fault
    // campaigns can classify them instead of losing the whole process.
    kfault(FaultKind::DesignError, "", "%s", s.c_str());
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "info: %s\n", s.c_str());
}

} // namespace cmd
