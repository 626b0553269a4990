#include "robust/net/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace robust::net {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error("robustd client: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Client::~Client() { closeNow(); }

void Client::connectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("robustd client: unix path too long: " + path);
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throwErrno("socket()");
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throwErrno("connect('" + path + "')");
  }
}

void Client::connectTcp(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throwErrno("socket()");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throwErrno("connect(127.0.0.1:" + std::to_string(port) + ")");
  }
}

void Client::writeAll(const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::write(fd_, data + sent, n - sent);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) {
      continue;
    }
    throwErrno("write()");
  }
}

void Client::readAll(std::uint8_t* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd_, data + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      throw std::runtime_error(
          "robustd client: server closed the connection mid-frame");
    }
    if (errno == EINTR) {
      continue;
    }
    throwErrno("read()");
  }
}

void Client::sendFrame(FrameType type, std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> frame =
      buildFrame(type, nextRequestId_++, payload);
  writeAll(frame.data(), frame.size());
}

std::pair<FrameHeader, std::vector<std::uint8_t>> Client::readFrame() {
  std::array<std::uint8_t, kHeaderBytes> head;
  readAll(head.data(), head.size());
  const util::Diagnostics diag("robustd:reply");
  const FrameHeader header = decodeFrameHeader(head, limits_, diag);
  std::vector<std::uint8_t> payload(header.payloadBytes);
  readAll(payload.data(), payload.size());
  return {header, std::move(payload)};
}

std::vector<std::uint8_t> Client::await(FrameType expect) {
  auto [header, payload] = readFrame();
  if (header.type == FrameType::Reject) {
    const util::Diagnostics diag("robustd:reply");
    throw RejectedError(decodeReject(payload, diag));
  }
  if (header.type != expect) {
    throw std::runtime_error(
        "robustd client: expected frame type 0x" +
        std::to_string(static_cast<unsigned>(expect)) + ", got 0x" +
        std::to_string(static_cast<unsigned>(header.type)));
  }
  return std::move(payload);
}

std::uint64_t Client::hello(const std::string& tenant,
                            std::uint32_t declaredDemand) {
  std::vector<std::uint8_t> payload;
  encodeHello(declaredDemand, tenant, payload);
  sendFrame(FrameType::Hello, payload);
  const std::vector<std::uint8_t> reply = await(FrameType::HelloOk);
  const util::Diagnostics diag("robustd:reply");
  return decodeHelloOk(reply, diag).sessionId;
}

RegisterReply Client::registerProblem(const core::ProblemSpec& spec) {
  return registerEncoded(encodeProblemSpec(spec));
}

RegisterReply Client::registerEncoded(
    std::span<const std::uint8_t> specBytes) {
  sendFrame(FrameType::Register, specBytes);
  const std::vector<std::uint8_t> reply = await(FrameType::RegisterOk);
  const util::Diagnostics diag("robustd:reply");
  return decodeRegisterOk(reply, diag);
}

std::vector<WireResult> Client::analyze(std::uint64_t key,
                                        std::uint32_t instanceCount,
                                        std::span<const double> origins) {
  std::vector<std::uint8_t> payload;
  encodeAnalyze(key, instanceCount, origins, payload);
  sendFrame(FrameType::Analyze, payload);
  const std::vector<std::uint8_t> reply = await(FrameType::Result);
  const util::Diagnostics diag("robustd:reply");
  return decodeResult(reply, limits_, diag);
}

std::string Client::stats() {
  std::vector<std::uint8_t> payload;
  encodeAdminRequest(kStatsSchemaVersion, payload);
  sendFrame(FrameType::Stats, payload);
  const std::vector<std::uint8_t> reply = await(FrameType::StatsOk);
  return {reinterpret_cast<const char*>(reply.data()), reply.size()};
}

std::string Client::traceDump() {
  std::vector<std::uint8_t> payload;
  encodeAdminRequest(kStatsSchemaVersion, payload);
  sendFrame(FrameType::TraceDump, payload);
  const std::vector<std::uint8_t> reply = await(FrameType::TraceDumpOk);
  return {reinterpret_cast<const char*>(reply.data()), reply.size()};
}

void Client::bye() {
  if (fd_ < 0) {
    return;
  }
  std::vector<std::uint8_t> empty;
  sendFrame(FrameType::Bye, empty);
  (void)await(FrameType::ByeOk);
  closeNow();
}

void Client::sendRaw(std::span<const std::uint8_t> bytes) {
  writeAll(bytes.data(), bytes.size());
}

void Client::closeNow() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace robust::net
