// Test helper: run a piece of code in a forked child whose file-size limit
// (RLIMIT_FSIZE) is small, so the on-disk stores' writes fail part-way —
// the way a full disk would — without touching the test process itself.
// SIGXFSZ is ignored in the child, so an oversized write returns EFBIG
// instead of killing it. Keep `body` single-threaded: only the forking
// thread exists in the child.
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <functional>

namespace velev::test {

/// True when the child ran `body` to completion under the limit.
inline bool runWithFileSizeLimit(rlim_t limitBytes,
                                 const std::function<void()>& body) {
  const pid_t pid = fork();
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit lim{limitBytes, limitBytes};
    if (setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(2);
    body();
    _exit(0);
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace velev::test
