/**
 * @file
 * A minimal, dependency-free embedded HTTP/1.1 server for the live
 * telemetry plane (docs/observability.md, "Live endpoints").
 *
 * Design constraints, in order:
 *
 *  1. **Strictly read-only.** Only GET/HEAD are accepted; the server
 *     never mutates framework state, so hosting it cannot perturb a
 *     run (bit-identical artifacts with the server on or off).
 *  2. **Bounded.** One acceptor thread plus a small fixed worker pool;
 *     a bounded pending-connection queue (over-limit connections get
 *     an immediate 503), a request-size cap and a header-read timeout
 *     keep a misbehaving client from tying the server down.
 *  3. **Graceful shutdown.** stop() stops accepting, wakes every
 *     worker (including ones inside long-lived streaming responses,
 *     which poll stopping()) and joins all threads before returning.
 *
 * POSIX sockets only (loopback scraping is the intended use); no TLS,
 * no keep-alive, no chunked encoding — every response closes the
 * connection, which is exactly right for 1 Hz scrapers and SSE.
 */

#ifndef GEST_NET_HTTP_SERVER_HH
#define GEST_NET_HTTP_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gest {
namespace net {

/** One parsed request (request line + headers; GET/HEAD carry no body). */
struct HttpRequest
{
    std::string method;   ///< "GET" or "HEAD"
    std::string target;   ///< raw request target, e.g. "/metrics?x=1"
    std::string path;     ///< target without the query string
    std::string query;    ///< query string without the '?'; may be empty

    /** Header fields in arrival order; names lower-cased. */
    std::vector<std::pair<std::string, std::string>> headers;

    /** First value of header @p name (lower-case), or "" if absent. */
    std::string header(const std::string& name) const;
};

/** A buffered response for plain (non-streaming) handlers. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
};

/**
 * Write side of one open connection, handed to streaming handlers
 * (Server-Sent Events). Headers are already on the wire when the
 * handler runs; write() appends raw bytes. A streaming handler must
 * return promptly once ok() goes false (client disconnected or the
 * server is stopping). It may first flush what it has: write() keeps
 * working after a stop until the client is gone, and each send is
 * bounded by the request timeout.
 */
class StreamWriter
{
  public:
    /** @return false when the client is gone or stopped reading. */
    bool write(const std::string& data);

    /** @return whether the connection is still worth writing to. */
    bool ok() const;

    /** Sleep briefly (@p ms capped at 100) between stream polls. */
    void waitBriefly(int ms) const;

  private:
    friend class HttpServer;
    StreamWriter(int fd, const std::atomic<bool>& stopping)
        : _fd(fd), _stopping(stopping)
    {}

    int _fd;
    bool _broken = false;
    const std::atomic<bool>& _stopping;
};

/**
 * The embedded server. Routes are exact-path matches registered before
 * start(); the handler table is immutable while the server runs, so
 * workers read it without locking.
 */
class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest&)>;
    using StreamHandler =
        std::function<void(const HttpRequest&, StreamWriter&)>;

    struct Options
    {
        /** Worker threads handling accepted connections. */
        int workerThreads = 2;

        /** Pending + in-flight connection cap; beyond it: 503. */
        int maxConnections = 32;

        /** Request line + headers cap in bytes; beyond it: 431. */
        std::size_t maxRequestBytes = 8192;

        /**
         * Timeout for reading the request head, and for each send a
         * client leaves unread, milliseconds.
         */
        int requestTimeoutMs = 2000;
    };

    /**
     * @param address "host:port" to bind, e.g. "127.0.0.1:0" (port 0
     *        asks the kernel for an ephemeral port; read it back with
     *        port() after start()). Host must be a dotted IPv4 literal
     *        or "localhost".
     */
    explicit HttpServer(std::string address);
    HttpServer(std::string address, Options options);

    /** Stops and joins if still running. */
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /** Register a buffered handler for an exact path. */
    void route(const std::string& path, Handler handler);

    /** Register a streaming handler (SSE) for an exact path. */
    void routeStream(const std::string& path, StreamHandler handler);

    /**
     * Bind, listen and spawn the acceptor + workers. fatal() with an
     * actionable message when the address is malformed or the bind
     * fails (port taken, privileged port, ...).
     */
    void start();

    /** Graceful shutdown; idempotent. Joins every thread. */
    void stop();

    /** Bound TCP port (valid after start()). */
    int port() const { return _port; }

    /** "host:port" actually bound (valid after start()). */
    std::string address() const;

    /** @return whether stop() has begun. */
    bool stopping() const
    {
        return _stopping.load(std::memory_order_relaxed);
    }

    /** Requests fully parsed and routed so far. */
    std::uint64_t requestsServed() const
    {
        return _requests.load(std::memory_order_relaxed);
    }

    /** Connections rejected by the connection limit. */
    std::uint64_t connectionsRejected() const
    {
        return _rejected.load(std::memory_order_relaxed);
    }

  private:
    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd);

    std::string _bindAddress;
    Options _options;

    int _listenFd = -1;
    int _port = 0;
    std::string _host;

    std::atomic<bool> _running{false};
    std::atomic<bool> _stopping{false};
    std::atomic<std::uint64_t> _requests{0};
    std::atomic<std::uint64_t> _rejected{0};

    std::vector<std::pair<std::string, Handler>> _routes;
    std::vector<std::pair<std::string, StreamHandler>> _streamRoutes;

    std::mutex _queueMutex;
    std::condition_variable _queueCv;
    std::deque<int> _pending;
    int _active = 0;  ///< connections popped and being handled

    std::thread _acceptor;
    std::vector<std::thread> _workers;
};

} // namespace net
} // namespace gest

#endif // GEST_NET_HTTP_SERVER_HH
