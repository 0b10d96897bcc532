#include "io/fileops.hh"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#include "fault/fault.hh"

namespace ich
{
namespace io
{

namespace
{

using fault::Decision;
using fault::Kind;
using fault::kNoArg;

/** Fail with @p err the way the real syscall would. */
int
failWith(int err)
{
    errno = err;
    return -1;
}

[[noreturn]] void
die()
{
    // SIGKILL, not abort(): the victim must get no chance to flush or
    // unwind — exactly what a power cut / OOM kill looks like from the
    // recovering process's point of view.
    std::raise(SIGKILL);
    for (;;) {
    }
}

} // namespace

int
open(const char *path, int flags, mode_t mode, const char *site)
{
    if (!fault::active())
        return ::open(path, flags, mode);
    Decision d;
    if (!fault::decide(site, "open", path, d))
        return ::open(path, flags, mode);
    switch (d.kind) {
      case Kind::kCrash: die();
      case Kind::kEnospc: return failWith(ENOSPC);
      case Kind::kEio: return failWith(EIO);
      case Kind::kEintr: return failWith(EINTR);
      default: return ::open(path, flags, mode);
    }
}

ssize_t
pread(int fd, void *buf, std::size_t count, off_t offset,
      const char *site, const char *path)
{
    if (!fault::active())
        return ::pread(fd, buf, count, offset);
    Decision d;
    if (!fault::decide(site, "read", path, d))
        return ::pread(fd, buf, count, offset);
    switch (d.kind) {
      case Kind::kCrash: die();
      case Kind::kEio: return failWith(EIO);
      case Kind::kEintr: return failWith(EINTR);
      default: return ::pread(fd, buf, count, offset);
    }
}

ssize_t
write(int fd, const void *buf, std::size_t count, const char *site,
      const char *path)
{
    if (!fault::active())
        return ::write(fd, buf, count);
    Decision d;
    if (!fault::decide(site, "write", path, d))
        return ::write(fd, buf, count);
    switch (d.kind) {
      case Kind::kCrash:
        die();
      case Kind::kEintr:
        return failWith(EINTR);
      case Kind::kEnospc:
        return failWith(ENOSPC);
      case Kind::kEio:
        return failWith(EIO);
      case Kind::kShort: {
        // A genuinely short count: default seeded in [1, count), an
        // explicit arg taken verbatim (arg=0 exercises the write()==0
        // pathology callers must treat as an error, not a retry).
        if (count <= 1)
            return ::write(fd, buf, count);
        std::size_t k = d.arg != kNoArg
                            ? static_cast<std::size_t>(d.arg)
                            : 1 + static_cast<std::size_t>(
                                      d.draw % (count - 1));
        if (k > count)
            k = count - 1;
        return ::write(fd, buf, k);
      }
      case Kind::kTorn: {
        // Land a strict prefix of the buffer, then die mid-write. The
        // partial bytes stay visible to the recovering process (page
        // cache survives a process kill), modeling a torn append.
        std::size_t k =
            count == 0 ? 0
                       : static_cast<std::size_t>(
                             (d.arg != kNoArg ? d.arg : d.draw) % count);
        if (k > 0) {
            ssize_t ignored = ::write(fd, buf, k);
            (void)ignored;
        }
        die();
      }
      case Kind::kBitflip: {
        if (count == 0)
            return ::write(fd, buf, count);
        std::vector<std::uint8_t> copy(
            static_cast<const std::uint8_t *>(buf),
            static_cast<const std::uint8_t *>(buf) + count);
        std::uint64_t bit =
            (d.arg != kNoArg ? d.arg : d.draw) % (count * 8);
        copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        return ::write(fd, copy.data(), count);
      }
      default:
        return ::write(fd, buf, count);
    }
}

int
fsync(int fd, const char *site, const char *path)
{
    if (!fault::active())
        return ::fsync(fd);
    Decision d;
    if (!fault::decide(site, "fsync", path, d))
        return ::fsync(fd);
    switch (d.kind) {
      case Kind::kCrash: die();
      case Kind::kEio: return failWith(EIO);
      case Kind::kEnospc: return failWith(ENOSPC);
      case Kind::kEintr: return failWith(EINTR);
      case Kind::kFsyncDrop: return 0; // lie: nothing reached disk
      default: return ::fsync(fd);
    }
}

int
ftruncate(int fd, off_t length, const char *site, const char *path)
{
    if (!fault::active())
        return ::ftruncate(fd, length);
    Decision d;
    if (!fault::decide(site, "truncate", path, d))
        return ::ftruncate(fd, length);
    switch (d.kind) {
      case Kind::kCrash: die();
      case Kind::kEio: return failWith(EIO);
      case Kind::kEintr: return failWith(EINTR);
      default: return ::ftruncate(fd, length);
    }
}

} // namespace io
} // namespace ich
