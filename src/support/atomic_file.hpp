// All-or-nothing file replacement for the segments of the on-disk result
// store (core/result_store.hpp: grid checkpoints and the serve cache
// journal).
//
// The content is written to a `<path>.tmp` sibling, the stream is closed
// and checked, and only then renamed over `path` (atomic on POSIX: a
// reader sees the old file or the new one, never a mix). A write that
// fails part-way — a full disk, a file-size limit — leaves `path` exactly
// as it was: the torn tmp file is removed, never renamed over good data.
#pragma once

#include <filesystem>
#include <functional>
#include <ostream>

namespace velev {

/// Replace `path` with what `write` puts into the stream. Returns false
/// (and leaves `path` untouched) when the tmp file cannot be opened,
/// written, closed or renamed.
bool replaceFileAtomically(const std::filesystem::path& path,
                           const std::function<void(std::ostream&)>& write);

}  // namespace velev
