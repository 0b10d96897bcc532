/**
 * @file
 * Fundamental unit types used across the IChannels simulator.
 *
 * Simulated time is kept as an unsigned 64-bit picosecond count, which
 * covers ~213 days of simulated time — far beyond any experiment in the
 * paper (the longest runs are a few simulated seconds). Analog quantities
 * (volts, amps, farads, ohms, hertz) use double precision.
 */

#ifndef ICH_COMMON_TYPES_HH
#define ICH_COMMON_TYPES_HH

#include <cstdint>

namespace ich
{

/** Simulated time in picoseconds. */
using Time = std::uint64_t;

/** Cycle count (core clock or TSC). */
using Cycles = std::uint64_t;

/** Hardware identifiers. */
using CoreId = int;
using ThreadId = int;

namespace time_literals
{

constexpr Time kPicosecond = 1;
constexpr Time kNanosecond = 1000;
constexpr Time kMicrosecond = 1000 * kNanosecond;
constexpr Time kMillisecond = 1000 * kMicrosecond;
constexpr Time kSecond = 1000 * kMillisecond;

} // namespace time_literals

/** Convert picoseconds to floating-point seconds/micro/nanoseconds. */
constexpr double
toSeconds(Time t)
{
    return static_cast<double>(t) * 1e-12;
}

constexpr double
toMicroseconds(Time t)
{
    return static_cast<double>(t) * 1e-6;
}

constexpr double
toNanoseconds(Time t)
{
    return static_cast<double>(t) * 1e-3;
}

/** Convert floating-point seconds/micro/nanoseconds to picoseconds. */
constexpr Time
fromSeconds(double s)
{
    return static_cast<Time>(s * 1e12 + 0.5);
}

constexpr Time
fromMicroseconds(double us)
{
    return static_cast<Time>(us * 1e6 + 0.5);
}

constexpr Time
fromNanoseconds(double ns)
{
    return static_cast<Time>(ns * 1e3 + 0.5);
}

constexpr Time
fromMilliseconds(double ms)
{
    return static_cast<Time>(ms * 1e9 + 0.5);
}

/** Period of one clock cycle at the given frequency, in picoseconds. */
constexpr double
cyclePicos(double freq_ghz)
{
    return 1000.0 / freq_ghz;
}

} // namespace ich

#endif // ICH_COMMON_TYPES_HH
