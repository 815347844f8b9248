#include "common/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

namespace cmp {

bool SendAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, p + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool SendAll(int fd, const std::string& data) {
  return SendAll(fd, data.data(), data.size());
}

bool SendLine(int fd, const std::string& line) {
  return SendAll(fd, line + "\n");
}

bool LineReader::ReadLine(std::string* out) {
  size_t scanned = start_;  // buf_ before this holds no '\n'
  while (!too_long_) {
    const size_t nl = buf_.find('\n', scanned);
    const size_t pending =
        (nl == std::string::npos ? buf_.size() : nl) - start_;
    if (pending > kMaxLineBytes) {
      too_long_ = true;
      break;
    }
    if (nl != std::string::npos) {
      out->assign(buf_, start_, pending);
      if (!out->empty() && out->back() == '\r') out->pop_back();
      start_ = nl + 1;
      return true;
    }
    // Compact only when refilling, so consuming a line moves no bytes.
    buf_.erase(0, start_);
    start_ = 0;
    scanned = buf_.size();
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
  return false;
}

void SetNoDelay(int fd) {
  // Fails with EOPNOTSUPP on non-TCP sockets, which have no Nagle delay
  // to turn off; nothing to report either way.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

namespace {

int FailListen(int fd, std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
  if (fd >= 0) ::close(fd);
  return -1;
}

}  // namespace

int ListenTcp(const std::string& host, int port, int* bound_port,
              std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return FailListen(fd, error, "socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad listen address " + host;
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return FailListen(fd, error, "bind " + host + ":" + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return FailListen(fd, error, "getsockname");
  }
  if (bound_port != nullptr) *bound_port = ntohs(bound.sin_port);
  if (::listen(fd, 64) != 0) return FailListen(fd, error, "listen");
  return fd;
}

int ListenUnix(const std::string& path, std::string* error) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return FailListen(fd, error, "socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "unix socket path too long";
    ::close(fd);
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // stale socket from a dead daemon
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return FailListen(fd, error, "bind " + path);
  }
  if (::listen(fd, 64) != 0) return FailListen(fd, error, "listen");
  return fd;
}

bool WritePortFile(const std::string& path, int port) {
  std::ofstream pf(path, std::ios::trunc);
  pf << port << "\n";
  return pf.good();
}

}  // namespace cmp
