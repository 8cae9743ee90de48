#include "net/http_server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace net {

namespace {

const char*
reasonPhrase(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 431: return "Request Header Fields Too Large";
      case 503: return "Service Unavailable";
      default: return "Unknown";
    }
}

/** send() the whole buffer; EINTR-safe; never raises SIGPIPE. */
bool
sendAll(int fd, const char* data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Serialize and send a buffered response. @p head_only omits the body. */
bool
sendResponse(int fd, const HttpResponse& response, bool head_only)
{
    std::string head = "HTTP/1.1 " + std::to_string(response.status) +
                       " " + reasonPhrase(response.status) + "\r\n";
    head += "Content-Type: " + response.contentType + "\r\n";
    head += "Content-Length: " + std::to_string(response.body.size()) +
            "\r\n";
    head += "Connection: close\r\n\r\n";
    if (!sendAll(fd, head.data(), head.size()))
        return false;
    if (head_only)
        return true;
    return sendAll(fd, response.body.data(), response.body.size());
}

void
sendError(int fd, int status, const std::string& message)
{
    HttpResponse response;
    response.status = status;
    response.body = message + "\n";
    sendResponse(fd, response, /*head_only=*/false);
}

} // namespace

std::string
HttpRequest::header(const std::string& name) const
{
    for (const auto& [key, value] : headers) {
        if (key == name)
            return value;
    }
    return "";
}

bool
StreamWriter::write(const std::string& data)
{
    if (_broken)
        return false;
    if (!sendAll(_fd, data.data(), data.size())) {
        _broken = true;
        return false;
    }
    return true;
}

bool
StreamWriter::ok() const
{
    return !_broken && !_stopping.load(std::memory_order_acquire);
}

void
StreamWriter::waitBriefly(int ms) const
{
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(std::max(ms, 1), 100)));
}

HttpServer::HttpServer(std::string address)
    : HttpServer(std::move(address), Options())
{}

HttpServer::HttpServer(std::string address, Options options)
    : _bindAddress(std::move(address)), _options(options)
{
    if (_options.workerThreads < 1)
        _options.workerThreads = 1;
    if (_options.maxConnections < 1)
        _options.maxConnections = 1;
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::route(const std::string& path, Handler handler)
{
    if (_running.load(std::memory_order_relaxed))
        panic("HttpServer routes must be registered before start()");
    _routes.emplace_back(path, std::move(handler));
}

void
HttpServer::routeStream(const std::string& path, StreamHandler handler)
{
    if (_running.load(std::memory_order_relaxed))
        panic("HttpServer routes must be registered before start()");
    _streamRoutes.emplace_back(path, std::move(handler));
}

std::string
HttpServer::address() const
{
    return _host + ":" + std::to_string(_port);
}

void
HttpServer::start()
{
    if (_running.load(std::memory_order_relaxed))
        panic("HttpServer started twice");

    const std::size_t colon = _bindAddress.rfind(':');
    if (colon == std::string::npos)
        fatal("telemetry listen address '", _bindAddress,
              "' is not host:port (e.g. 127.0.0.1:0 for an ephemeral "
              "port)");
    std::string host = _bindAddress.substr(0, colon);
    if (host == "localhost")
        host = "127.0.0.1";
    const std::int64_t port = parseInt(
        _bindAddress.substr(colon + 1), "telemetry listen port");
    if (port < 0 || port > 65535)
        fatal("telemetry listen port ", port, " is out of range 0-65535");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        fatal("telemetry listen host '", host,
              "' is not a dotted IPv4 address or 'localhost'");

    _listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (_listenFd < 0)
        fatal("telemetry server cannot create a socket: ",
              std::strerror(errno));
    const int one = 1;
    ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(_listenFd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0)
        fatal("telemetry server cannot bind ", _bindAddress, ": ",
              std::strerror(errno),
              " (is the port already taken? use port 0 for an "
              "ephemeral one)");
    if (::listen(_listenFd, _options.maxConnections) != 0)
        fatal("telemetry server cannot listen on ", _bindAddress, ": ",
              std::strerror(errno));

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(_listenFd, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) != 0)
        fatal("telemetry server cannot read its bound address: ",
              std::strerror(errno));
    _port = ntohs(bound.sin_port);
    _host = host;

    // Non-blocking accept under poll(): the acceptor wakes at least
    // every 100 ms to observe _stopping, so stop() never needs close()
    // tricks to interrupt a blocked accept().
    const int flags = ::fcntl(_listenFd, F_GETFL, 0);
    ::fcntl(_listenFd, F_SETFL, flags | O_NONBLOCK);

    _stopping.store(false, std::memory_order_relaxed);
    _running.store(true, std::memory_order_relaxed);
    _acceptor = std::thread([this] { acceptLoop(); });
    _workers.reserve(static_cast<std::size_t>(_options.workerThreads));
    for (int i = 0; i < _options.workerThreads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

void
HttpServer::stop()
{
    if (!_running.load(std::memory_order_relaxed))
        return;
    // Release: a stream handler that sees the stop also sees whatever
    // the stopping thread published before it.
    _stopping.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(_queueMutex);
        _queueCv.notify_all();
    }
    if (_acceptor.joinable())
        _acceptor.join();
    for (std::thread& worker : _workers) {
        if (worker.joinable())
            worker.join();
    }
    _workers.clear();
    for (int fd : _pending)
        ::close(fd);
    _pending.clear();
    if (_listenFd >= 0) {
        ::close(_listenFd);
        _listenFd = -1;
    }
    _running.store(false, std::memory_order_relaxed);
}

void
HttpServer::acceptLoop()
{
    while (!_stopping.load(std::memory_order_relaxed)) {
        pollfd pfd{_listenFd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0)
            continue;
        const int fd = ::accept4(_listenFd, nullptr, nullptr,
                                 SOCK_CLOEXEC);
        if (fd < 0)
            continue;
        bool over_limit;
        {
            std::lock_guard<std::mutex> lock(_queueMutex);
            over_limit = static_cast<int>(_pending.size()) + _active >=
                         _options.maxConnections;
            if (!over_limit) {
                _pending.push_back(fd);
                _queueCv.notify_one();
            }
        }
        if (over_limit) {
            _rejected.fetch_add(1, std::memory_order_relaxed);
            sendError(fd, 503, "telemetry server connection limit "
                               "reached; retry shortly");
            ::close(fd);
        }
    }
}

void
HttpServer::workerLoop()
{
    for (;;) {
        int fd;
        {
            std::unique_lock<std::mutex> lock(_queueMutex);
            _queueCv.wait(lock, [this] {
                return !_pending.empty() ||
                       _stopping.load(std::memory_order_relaxed);
            });
            if (_pending.empty())
                return;  // stopping with an empty queue
            fd = _pending.front();
            _pending.pop_front();
            ++_active;
        }
        handleConnection(fd);
        ::close(fd);
        {
            std::lock_guard<std::mutex> lock(_queueMutex);
            --_active;
        }
    }
}

void
HttpServer::handleConnection(int fd)
{
    // Bound the request-head read and every send, so neither a silent
    // client nor one that stops reading can park a worker (and stop())
    // past the timeout.
    timeval timeout{};
    timeout.tv_sec = _options.requestTimeoutMs / 1000;
    timeout.tv_usec = (_options.requestTimeoutMs % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::string head;
    head.reserve(512);
    char buf[1024];
    while (head.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            if (!head.empty())
                sendError(fd, 408, "timed out reading the request");
            return;
        }
        head.append(buf, static_cast<std::size_t>(n));
        // Checked after the append: the limit must hold even when an
        // oversized head arrives in a single segment.
        if (head.size() > _options.maxRequestBytes) {
            sendError(fd, 431, "request head exceeds " +
                                   std::to_string(
                                       _options.maxRequestBytes) +
                                   " bytes");
            return;
        }
    }

    // Request line: METHOD SP TARGET SP VERSION.
    const std::size_t line_end = head.find("\r\n");
    const std::vector<std::string> parts =
        splitWhitespace(head.substr(0, line_end));
    if (parts.size() != 3 || !startsWith(parts[2], "HTTP/")) {
        sendError(fd, 400, "malformed request line");
        return;
    }
    HttpRequest request;
    request.method = parts[0];
    request.target = parts[1];
    const std::size_t question = request.target.find('?');
    request.path = request.target.substr(0, question);
    if (question != std::string::npos)
        request.query = request.target.substr(question + 1);

    std::size_t cursor = line_end + 2;
    const std::size_t head_end = head.find("\r\n\r\n");
    while (cursor < head_end) {
        const std::size_t eol = head.find("\r\n", cursor);
        const std::string line = head.substr(cursor, eol - cursor);
        cursor = eol + 2;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        request.headers.emplace_back(toLower(line.substr(0, colon)),
                                     trim(line.substr(colon + 1)));
    }

    _requests.fetch_add(1, std::memory_order_relaxed);

    if (request.method != "GET" && request.method != "HEAD") {
        sendError(fd, 405, "only GET and HEAD are supported; the "
                           "telemetry server is read-only");
        return;
    }

    for (const auto& [path, handler] : _routes) {
        if (path == request.path) {
            sendResponse(fd, handler(request),
                         request.method == "HEAD");
            return;
        }
    }
    for (const auto& [path, handler] : _streamRoutes) {
        if (path != request.path)
            continue;
        const std::string stream_head =
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n";
        if (!sendAll(fd, stream_head.data(), stream_head.size()))
            return;
        if (request.method == "HEAD")
            return;
        StreamWriter writer(fd, _stopping);
        handler(request, writer);
        return;
    }
    sendError(fd, 404, "unknown endpoint " + request.path +
                           "; try /metrics, /status, /history, "
                           "/champion, /events or /healthz");
}

} // namespace net
} // namespace gest
