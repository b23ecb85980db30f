#include "base/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "base/status.h"

namespace chase {

StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return NotFoundError("cannot open file: " + path);
  // Sized by fstat, never by seeking: a directory opens fine and reports a
  // meaningless size, so anything but a regular file is refused first.
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    ::close(fd);
    return InternalError("cannot stat file: " + path);
  }
  if (!S_ISREG(info.st_mode)) {
    ::close(fd);
    return InvalidArgumentError("not a regular file: " + path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(info.st_size));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done != bytes.size()) return InternalError("short read: " + path);
  return bytes;
}

}  // namespace chase
