#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cmp {

ServeClient::~ServeClient() { Close(); }

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = LineReader(-1);
}

bool ServeClient::ConnectTcp(const std::string& host, int port,
                             std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad address " + host;
    Close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "connect " + host + ":" + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    Close();
    return false;
  }
  SetNoDelay(fd_);
  reader_ = LineReader(fd_);
  return true;
}

bool ServeClient::ConnectUnix(const std::string& path, std::string* error) {
  Close();
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "unix socket path too long";
    Close();
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "connect " + path + ": " + std::strerror(errno);
    }
    Close();
    return false;
  }
  reader_ = LineReader(fd_);
  return true;
}

bool ServeClient::Send(const std::string& line) {
  return fd_ >= 0 && SendLine(fd_, line);
}

bool ServeClient::Recv(std::string* line) {
  return fd_ >= 0 && reader_.ReadLine(line);
}

bool ServeClient::Rpc(const std::string& line, std::string* reply) {
  return Send(line) && Recv(reply);
}

bool ServeClient::Batch(const std::string& model,
                        const std::vector<std::string>& rows,
                        std::vector<std::string>* replies) {
  std::string request = "batch " + model + " " + std::to_string(rows.size());
  for (const std::string& row : rows) {
    request += "\n";
    request += row;
  }
  if (!Send(request)) return false;
  replies->clear();
  replies->reserve(rows.size());
  std::string line;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!Recv(&line)) return false;
    replies->push_back(line);
  }
  return Recv(&line) && line.rfind("done ", 0) == 0;
}

}  // namespace cmp
