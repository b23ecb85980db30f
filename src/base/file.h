// Whole-file reads for the loaders (text programs, binary envelopes).

#ifndef CHASE_BASE_FILE_H_
#define CHASE_BASE_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"

namespace chase {

// The contents of the regular file at `path`. Fails with kNotFound when it
// cannot be opened, kInvalidArgument when it is not a regular file (a
// directory, a FIFO, a device) and kInternal on a read error or a file
// that shrank while being read.
[[nodiscard]]
StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

}  // namespace chase

#endif  // CHASE_BASE_FILE_H_
