/**
 * @file
 * io::FileOps — the syscall seam the durability layers route through.
 *
 * Each wrapper takes a *site* tag (and the target path, when it isn't
 * implied by the fd) naming the durability context of the call:
 *
 *   chunk.write    ChunkFileWriter (create/append/fsync/truncate)
 *   chunk.read     ChunkFileScanner (open/pread)
 *
 * With no fault plan armed (fault::active() false — the overwhelmingly
 * common case) every wrapper is one relaxed atomic load and a
 * predicted-not-taken branch in front of the real syscall: free on the
 * BENCH floors. With a plan armed, the wrapper consults fault::decide()
 * and emulates the scripted failure — returning -1 with the scripted
 * errno, writing fewer bytes than asked, corrupting a bit, skipping an
 * fsync, or killing the process mid-write (a torn write).
 *
 * The wrappers intentionally mirror the POSIX signatures (same return
 * and errno conventions), so call sites stay readable and the fault
 * behaviors exercise exactly the error paths real syscalls can take.
 */

#ifndef ICH_IO_FILEOPS_HH
#define ICH_IO_FILEOPS_HH

#include <cstddef>
#include <sys/types.h>

namespace ich
{
namespace io
{

int open(const char *path, int flags, mode_t mode, const char *site);
ssize_t pread(int fd, void *buf, std::size_t count, off_t offset,
              const char *site, const char *path);
ssize_t write(int fd, const void *buf, std::size_t count,
              const char *site, const char *path);
int fsync(int fd, const char *site, const char *path);
int ftruncate(int fd, off_t length, const char *site, const char *path);

} // namespace io
} // namespace ich

#endif // ICH_IO_FILEOPS_HH
