#include "support/atomic_file.hpp"

#include <fstream>
#include <system_error>

namespace velev {

bool replaceFileAtomically(const std::filesystem::path& path,
                           const std::function<void(std::ostream&)>& write) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (out) {
    write(out);
    out.close();  // the final flush can fail too
  }
  std::error_code ec;
  if (out) std::filesystem::rename(tmp, path, ec);
  if (!out || ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace velev
