/**
 * @file
 * Protocol and fault battery for the network front door (src/net/):
 *
 *   Codec round-trips — header fields, every request/result payload,
 *   every serve::Status code, empty and degenerate payloads,
 *   frames at the size ceiling; decode(encode(x)) is required to be
 *   bit-identical (memcmp on the value bytes), and re-encoding a
 *   decoded payload must reproduce the input bytes.
 *
 *   Malformed input — truncated payloads at EVERY prefix length,
 *   oversized length prefixes, bad magic/version, unknown op codes,
 *   hostile count fields, out-of-range enums, trailing garbage, and
 *   raw-socket fault injection against a live server: each must
 *   yield a typed protocol error or a clean close, never a crash, a
 *   hang, or a partial frame.
 *
 *   End-to-end — SpMV/SpMM/SpAdd over Unix-domain AND TCP sockets,
 *   bit-identical to the local engine on the shared demo matrices.
 *
 *   Faults and lifecycle — client disconnect with requests in
 *   flight releases admission slots; server shutdown mid-stream
 *   delivers kShuttingDown as a typed response; SIGPIPE is not
 *   fatal; and the Session close()-vs-completion-callback teardown
 *   ordering is raced deliberately so TSan pins the invariant.
 *
 * Thread counts: SMASH_SERVE_THREADS pins one count (the ctest
 * variants run 1, 2, and 8); unset, every count is covered.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "engine/dispatch.hh"
#include "formats/csr_matrix.hh"
#include "net/client.hh"
#include "net/demo_matrices.hh"
#include "net/server.hh"
#include "sim/exec_model.hh"
#include "worker_pin.hh"

namespace smash
{
namespace
{

std::vector<int>
threadCounts()
{
    if (const char* env = std::getenv("SMASH_SERVE_THREADS"))
        return {std::atoi(env)};
    return {1, 2, 8};
}

/** Unique-per-test unix socket path (pid-scoped; ctest runs suites
 *  in parallel processes). */
std::string
socketPath(const char* tag)
{
    return "/tmp/smash_net_" + std::to_string(::getpid()) + "_" +
        tag + ".sock";
}

bool
bitIdentical(const std::vector<Value>& a, const std::vector<Value>& b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(Value)) == 0);
}

const serve::StatusCode kAllStatusCodes[] = {
    serve::StatusCode::kOk,
    serve::StatusCode::kNotFound,
    serve::StatusCode::kInvalidOperand,
    serve::StatusCode::kOverloaded,
    serve::StatusCode::kDeadlineExceeded,
    serve::StatusCode::kShuttingDown,
    serve::StatusCode::kInternal,
    serve::StatusCode::kQuotaExceeded,
};

// --------------------------------------------------------------
// Frame header
// --------------------------------------------------------------

TEST(NetFrame, HeaderRoundTripAllOps)
{
    const net::Op ops[] = {
        net::Op::kPing,        net::Op::kSpmv,
        net::Op::kSpmm,        net::Op::kSpadd,
        net::Op::kHello,       net::Op::kPong,
        net::Op::kSpmvResult,  net::Op::kSpmmResult,
        net::Op::kSpaddResult, net::Op::kHelloResult,
        net::Op::kError,
    };
    for (const net::Op op : ops) {
        net::FrameHeader in;
        in.op = op;
        in.id = 0x0123456789abcdefULL;
        in.payloadBytes = 77;
        std::uint8_t bytes[net::kHeaderBytes];
        net::encodeHeader(in, bytes);
        net::FrameHeader out;
        EXPECT_FALSE(
            net::decodeHeader(bytes, net::kDefaultMaxFrameBytes, out)
                .has_value());
        EXPECT_EQ(out.version, net::kWireVersion);
        EXPECT_EQ(out.op, op);
        EXPECT_EQ(out.id, in.id);
        EXPECT_EQ(out.payloadBytes, in.payloadBytes);
    }
}

TEST(NetFrame, HeaderRejectsBadMagic)
{
    net::FrameHeader in;
    std::uint8_t bytes[net::kHeaderBytes];
    net::encodeHeader(in, bytes);
    bytes[0] ^= 0xff;
    net::FrameHeader out;
    const auto bad =
        net::decodeHeader(bytes, net::kDefaultMaxFrameBytes, out);
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(*bad, net::WireError::kBadMagic);
    EXPECT_FALSE(net::isRecoverable(*bad));
}

TEST(NetFrame, HeaderRejectsBadVersion)
{
    net::FrameHeader in;
    std::uint8_t bytes[net::kHeaderBytes];
    net::encodeHeader(in, bytes);
    bytes[4] = 0x7f; // version low byte
    net::FrameHeader out;
    const auto bad =
        net::decodeHeader(bytes, net::kDefaultMaxFrameBytes, out);
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(*bad, net::WireError::kBadVersion);
    EXPECT_FALSE(net::isRecoverable(*bad));
}

TEST(NetFrame, HeaderRejectsOversizedLength)
{
    net::FrameHeader in;
    in.op = net::Op::kSpmv;
    in.payloadBytes = 1025;
    std::uint8_t bytes[net::kHeaderBytes];
    net::encodeHeader(in, bytes);
    net::FrameHeader out;
    const auto bad = net::decodeHeader(bytes, 1024, out);
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(*bad, net::WireError::kOversized);
    EXPECT_FALSE(net::isRecoverable(*bad));
    // At the ceiling exactly: fine.
    in.payloadBytes = 1024;
    net::encodeHeader(in, bytes);
    EXPECT_FALSE(net::decodeHeader(bytes, 1024, out).has_value());
}

TEST(NetFrame, HeaderRejectsUnknownOpButRecoverably)
{
    net::FrameHeader in;
    in.payloadBytes = 8;
    std::uint8_t bytes[net::kHeaderBytes];
    net::encodeHeader(in, bytes);
    bytes[6] = 0x42; // op low byte: not a defined Op
    bytes[7] = 0x00;
    net::FrameHeader out;
    const auto bad =
        net::decodeHeader(bytes, net::kDefaultMaxFrameBytes, out);
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(*bad, net::WireError::kUnknownOp);
    EXPECT_TRUE(net::isRecoverable(*bad));
    // The id and length still decode — the server needs them to
    // skip the payload and answer on the right id.
    EXPECT_EQ(out.payloadBytes, 8u);
    // An unknown op with an INSANE length is NOT recoverable: the
    // payload cannot be safely skipped.
    bytes[16] = 0xff;
    bytes[17] = 0xff;
    bytes[18] = 0xff;
    bytes[19] = 0xff;
    const auto worse = net::decodeHeader(bytes, 1024, out);
    ASSERT_TRUE(worse.has_value());
    EXPECT_EQ(*worse, net::WireError::kOversized);
    EXPECT_FALSE(net::isRecoverable(*worse));
}

// --------------------------------------------------------------
// Codec round-trips
// --------------------------------------------------------------

TEST(NetCodec, SpmvRequestRoundTripBitIdentical)
{
    serve::SpmvRequest in;
    in.matrix = "ranker";
    // Exercise the full double range: denormal, inf, NaN, -0.0.
    in.x = {0.0, -0.0, 1.5, -2.25,
            std::numeric_limits<Value>::denorm_min(),
            std::numeric_limits<Value>::infinity(),
            -std::numeric_limits<Value>::infinity(),
            std::numeric_limits<Value>::quiet_NaN()};
    in.options.priority = serve::Priority::kHigh;
    in.options.deadline = std::chrono::microseconds(123456789);
    in.options.admission = serve::Admission::kBlock;

    net::Buffer bytes;
    net::encodeSpmvRequest(in, bytes);
    const auto out = net::decodeSpmvRequest(bytes.data(), bytes.size());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->matrix, in.matrix);
    EXPECT_TRUE(bitIdentical(out->x, in.x)); // NaN payload included
    EXPECT_EQ(out->options.priority, in.options.priority);
    EXPECT_EQ(out->options.deadline, in.options.deadline);
    EXPECT_EQ(out->options.admission, in.options.admission);

    // Re-encoding the decoded request reproduces the bytes.
    net::Buffer again;
    net::encodeSpmvRequest(*out, again);
    EXPECT_EQ(again, bytes);
}

TEST(NetCodec, SpmvRequestEmptyVectorAndName)
{
    serve::SpmvRequest in; // empty matrix name, empty x
    net::Buffer bytes;
    net::encodeSpmvRequest(in, bytes);
    const auto out = net::decodeSpmvRequest(bytes.data(), bytes.size());
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->matrix.empty());
    EXPECT_TRUE(out->x.empty());
}

TEST(NetCodec, SpmmRequestRoundTripBitIdentical)
{
    serve::SpmmRequest in;
    in.matrix = "graph";
    in.b = fmt::DenseMatrix(3, 2);
    for (Index r = 0; r < 3; ++r)
        for (Index c = 0; c < 2; ++c)
            in.b.at(r, c) = Value(r) * 1.0625 - Value(c) * 0.125;
    in.options.priority = serve::Priority::kBatch;

    net::Buffer bytes;
    net::encodeSpmmRequest(in, bytes);
    const auto out = net::decodeSpmmRequest(bytes.data(), bytes.size());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->matrix, in.matrix);
    ASSERT_EQ(out->b.rows(), in.b.rows());
    ASSERT_EQ(out->b.cols(), in.b.cols());
    EXPECT_TRUE(bitIdentical(out->b.data(), in.b.data()));
    EXPECT_EQ(out->options.priority, serve::Priority::kBatch);
}

TEST(NetCodec, SpaddRequestRoundTrip)
{
    serve::SpaddRequest in;
    in.a = "graph";
    in.b = "graph2";
    net::Buffer bytes;
    net::encodeSpaddRequest(in, bytes);
    const auto out =
        net::decodeSpaddRequest(bytes.data(), bytes.size());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->a, "graph");
    EXPECT_EQ(out->b, "graph2");
}

TEST(NetCodec, HelloRoundTrip)
{
    for (const std::string& tenant :
         {std::string(""), std::string("team-a"),
          std::string(400, 'x')}) {
        net::Buffer bytes;
        net::encodeHelloRequest(tenant, bytes);
        const auto out =
            net::decodeHelloRequest(bytes.data(), bytes.size());
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(*out, tenant);
    }
    for (const serve::StatusCode code : kAllStatusCodes) {
        net::Buffer bytes;
        net::encodeHelloResult(
            code == serve::StatusCode::kOk
                ? serve::Status()
                : serve::Status(code, "m"),
            bytes);
        const auto out =
            net::decodeHelloResult(bytes.data(), bytes.size());
        ASSERT_TRUE(out.has_value()) << toString(code);
        EXPECT_EQ(out->code(), code);
    }
}

TEST(NetCodec, SpmvResultAllStatusesSurviveTheWire)
{
    for (const serve::StatusCode code : kAllStatusCodes) {
        net::Buffer bytes;
        if (code == serve::StatusCode::kOk) {
            net::encodeSpmvResult(std::vector<Value>{1.0, 2.5},
                                  bytes);
        } else {
            net::encodeSpmvResult(
                serve::Status(code, "detail for " +
                              std::string(toString(code))),
                bytes);
        }
        const auto out =
            net::decodeSpmvResult(bytes.data(), bytes.size());
        ASSERT_TRUE(out.has_value()) << toString(code);
        EXPECT_EQ(out->status().code(), code);
        if (code == serve::StatusCode::kOk) {
            EXPECT_TRUE(bitIdentical(out->value(), {1.0, 2.5}));
        } else {
            EXPECT_EQ(out->status().message(),
                      "detail for " + std::string(toString(code)));
        }
    }
}

TEST(NetCodec, SpmmResultAllStatusesSurviveTheWire)
{
    for (const serve::StatusCode code : kAllStatusCodes) {
        net::Buffer bytes;
        if (code == serve::StatusCode::kOk) {
            fmt::DenseMatrix y(2, 2);
            y.at(0, 0) = 1;
            y.at(1, 1) = -0.0625;
            net::encodeSpmmResult(std::move(y), bytes);
        } else {
            net::encodeSpmmResult(serve::Status(code, "m"), bytes);
        }
        const auto out =
            net::decodeSpmmResult(bytes.data(), bytes.size());
        ASSERT_TRUE(out.has_value()) << toString(code);
        EXPECT_EQ(out->status().code(), code);
        if (code == serve::StatusCode::kOk) {
            EXPECT_EQ(out->value().at(1, 1), -0.0625);
        }
    }
}

TEST(NetCodec, SpaddResultAllStatusesSurviveTheWire)
{
    for (const serve::StatusCode code : kAllStatusCodes) {
        net::Buffer bytes;
        if (code == serve::StatusCode::kOk) {
            fmt::CooMatrix c(4, 4);
            c.add(0, 1, 1.25);
            c.add(3, 2, -0.5);
            c.canonicalize();
            net::encodeSpaddResult(std::move(c), bytes);
        } else {
            net::encodeSpaddResult(serve::Status(code, "m"), bytes);
        }
        const auto out =
            net::decodeSpaddResult(bytes.data(), bytes.size());
        ASSERT_TRUE(out.has_value()) << toString(code);
        EXPECT_EQ(out->status().code(), code);
        if (code == serve::StatusCode::kOk) {
            ASSERT_EQ(out->value().nnz(), 2);
            EXPECT_EQ(out->value().entries()[0].value, 1.25);
            EXPECT_EQ(out->value().entries()[1].value, -0.5);
        }
    }
}

TEST(NetCodec, DegenerateOkPayloads)
{
    // Empty SpMV result vector.
    net::Buffer bytes;
    net::encodeSpmvResult(std::vector<Value>{}, bytes);
    auto v = net::decodeSpmvResult(bytes.data(), bytes.size());
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->ok());
    EXPECT_TRUE(v->value().empty());

    // COO with zero nnz but nonzero shape.
    bytes.clear();
    net::encodeSpaddResult(fmt::CooMatrix(7, 9), bytes);
    auto c = net::decodeSpaddResult(bytes.data(), bytes.size());
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->value().rows(), 7);
    EXPECT_EQ(c->value().cols(), 9);
    EXPECT_EQ(c->value().nnz(), 0);
}

TEST(NetCodec, ErrorPayloadRoundTripAllKinds)
{
    const net::WireError kinds[] = {
        net::WireError::kBadMagic,  net::WireError::kBadVersion,
        net::WireError::kUnknownOp, net::WireError::kOversized,
        net::WireError::kMalformedPayload,
        net::WireError::kTruncated,
    };
    for (const net::WireError e : kinds) {
        net::Buffer bytes;
        net::encodeError(e, toString(e), bytes);
        const auto out = net::decodeError(bytes.data(), bytes.size());
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->error, e);
        EXPECT_EQ(out->detail, toString(e));
    }
}

TEST(NetCodec, FrameMessageAtTheCeiling)
{
    // A frame whose payload sits exactly at a small ceiling decodes;
    // the codecs and header agree on the boundary.
    const std::uint64_t ceiling = 4096;
    net::Buffer payload(ceiling, 0xab);
    const net::Buffer frame =
        net::frameMessage(net::Op::kSpmv, 7, payload);
    ASSERT_EQ(frame.size(), net::kHeaderBytes + ceiling);
    net::FrameHeader header;
    EXPECT_FALSE(
        net::decodeHeader(frame.data(), ceiling, header).has_value());
    EXPECT_EQ(header.payloadBytes, ceiling);
    EXPECT_EQ(header.id, 7u);
}

// --------------------------------------------------------------
// Malformed payloads (decoder totality)
// --------------------------------------------------------------

TEST(NetCodec, TruncationAtEveryPrefixIsRejected)
{
    // Property: every strict prefix of a valid payload must decode
    // to nullopt — never crash, never succeed.
    serve::SpmvRequest req;
    req.matrix = "ranker";
    req.x = {1.0, 2.0, 3.0};
    net::Buffer spmv;
    net::encodeSpmvRequest(req, spmv);
    for (std::size_t n = 0; n < spmv.size(); ++n)
        EXPECT_FALSE(net::decodeSpmvRequest(spmv.data(), n)) << n;

    net::Buffer result;
    net::encodeSpmvResult(std::vector<Value>{4.0, 5.0}, result);
    for (std::size_t n = 0; n < result.size(); ++n)
        EXPECT_FALSE(net::decodeSpmvResult(result.data(), n)) << n;

    fmt::CooMatrix coo(3, 3);
    coo.add(1, 2, 0.5);
    coo.canonicalize();
    net::Buffer spadd;
    net::encodeSpaddResult(std::move(coo), spadd);
    for (std::size_t n = 0; n < spadd.size(); ++n)
        EXPECT_FALSE(net::decodeSpaddResult(spadd.data(), n)) << n;
}

TEST(NetCodec, TrailingGarbageIsRejected)
{
    serve::SpaddRequest req;
    req.a = "a";
    req.b = "b";
    net::Buffer bytes;
    net::encodeSpaddRequest(req, bytes);
    bytes.push_back(0x00);
    EXPECT_FALSE(net::decodeSpaddRequest(bytes.data(), bytes.size()));
}

TEST(NetCodec, HostileCountFieldIsRejected)
{
    // An SpMV request claiming 2^61 vector elements in a tiny
    // payload must be rejected by the count guard, not honoured
    // with a gigantic resize.
    serve::SpmvRequest req;
    req.matrix = "m";
    req.x = {1.0};
    net::Buffer bytes;
    net::encodeSpmvRequest(req, bytes);
    // The u64 element count sits right after options (12 bytes) and
    // the str name (4 + 1 bytes).
    const std::size_t count_at = 12 + 4 + 1;
    ASSERT_LE(count_at + 8, bytes.size());
    for (int i = 0; i < 8; ++i)
        bytes[count_at + i] = 0xff;
    bytes[count_at + 7] = 0x2f;
    EXPECT_FALSE(net::decodeSpmvRequest(bytes.data(), bytes.size()));
}

TEST(NetCodec, OutOfRangeEnumsAreRejected)
{
    serve::SpmvRequest req;
    req.matrix = "m";
    net::Buffer bytes;
    net::encodeSpmvRequest(req, bytes);
    net::Buffer bad = bytes;
    bad[0] = 9; // priority out of range
    EXPECT_FALSE(net::decodeSpmvRequest(bad.data(), bad.size()));
    bad = bytes;
    bad[1] = 2; // admission out of range
    EXPECT_FALSE(net::decodeSpmvRequest(bad.data(), bad.size()));
    bad = bytes;
    bad[2] = 1; // pad must be zero
    EXPECT_FALSE(net::decodeSpmvRequest(bad.data(), bad.size()));

    net::Buffer result;
    net::encodeSpmvResult(serve::Status(
        serve::StatusCode::kInternal, ""), result);
    result[0] = 200; // status code beyond kInternal
    EXPECT_FALSE(net::decodeSpmvResult(result.data(), result.size()));
}

// --------------------------------------------------------------
// End-to-end over both transports
// --------------------------------------------------------------

/** Server + demo registry + oracle shared by the e2e tests. */
struct TestServer
{
    serve::MatrixRegistry registry;
    net::ServerOptions options;
    std::unique_ptr<net::Server> server;

    explicit TestServer(const char* tag, int threads,
                        Index max_inflight = 0,
                        Index max_inflight_per_conn = 0)
    {
        net::populateDemoRegistry(registry);
        options.unixPath = socketPath(tag);
        options.tcpPort = 0; // ephemeral
        options.session.threads = threads;
        options.session.maxInflight = max_inflight;
        options.maxInflightPerConn = max_inflight_per_conn;
        server = std::make_unique<net::Server>(registry, options);
        std::string error;
        if (!server->start(error))
            ADD_FAILURE() << "server start: " << error;
    }

    net::Client
    connect(bool tcp)
    {
        net::Client client;
        std::string error;
        const bool ok = tcp
            ? client.connectTcpSocket("localhost", server->tcpPort(),
                                      error)
            : client.connectUnixSocket(options.unixPath, error);
        EXPECT_TRUE(ok) << error;
        return client;
    }
};

std::vector<Value>
localSpmv(const fmt::CsrMatrix& csr, const std::vector<Value>& x)
{
    sim::NativeExec e;
    std::vector<Value> y(static_cast<std::size_t>(csr.rows()),
                         Value(0));
    eng::spmv(csr, x, y, e);
    return y;
}

TEST(NetEndToEnd, SpmvBitIdenticalOverBothTransports)
{
    const fmt::CsrMatrix csr =
        fmt::CsrMatrix::fromCoo(net::demoRanker());
    for (const int threads : threadCounts()) {
        TestServer ts("e2e", threads);
        for (const bool tcp : {false, true}) {
            net::Client client = ts.connect(tcp);
            ASSERT_TRUE(client.connected());
            EXPECT_TRUE(client.ping().ok());
            for (int seed = 0; seed < 6; ++seed) {
                const std::vector<Value> x = net::demoVector(seed);
                serve::Result<std::vector<Value>> r = client.spmv(
                    serve::SpmvRequest{"ranker", x, {}});
                ASSERT_TRUE(r.ok()) << r.status().toString();
                EXPECT_TRUE(bitIdentical(r.value(),
                                         localSpmv(csr, x)))
                    << "transport=" << (tcp ? "tcp" : "unix")
                    << " seed=" << seed;
            }
        }
        ts.server->shutdown();
    }
}

TEST(NetEndToEnd, SpmmAndSpaddRoundTrip)
{
    for (const int threads : threadCounts()) {
        TestServer ts("ops", threads);
        net::Client client = ts.connect(false);

        serve::SpmmRequest spmm;
        spmm.matrix = "ranker";
        spmm.b = fmt::DenseMatrix(net::kDemoRankerCols, 3);
        for (Index r = 0; r < net::kDemoRankerCols; ++r)
            for (Index c = 0; c < 3; ++c)
                spmm.b.at(r, c) =
                    Value(1) + Value((r + c) % 8) * Value(0.0625);
        serve::Result<fmt::DenseMatrix> ym = client.spmm(spmm);
        ASSERT_TRUE(ym.ok()) << ym.status().toString();
        EXPECT_EQ(ym.value().rows(), net::kDemoRankerRows);
        EXPECT_EQ(ym.value().cols(), 3);

        serve::Result<fmt::CooMatrix> sum = client.spadd(
            serve::SpaddRequest{"graph", "graph2", {}});
        ASSERT_TRUE(sum.ok()) << sum.status().toString();
        EXPECT_EQ(sum.value().rows(), net::kDemoGraphDim);
        EXPECT_GT(sum.value().nnz(), 0);

        // Typed validation statuses also survive the wire.
        serve::Result<std::vector<Value>> missing = client.spmv(
            serve::SpmvRequest{"no-such-matrix",
                               net::demoVector(0), {}});
        EXPECT_EQ(missing.status().code(),
                  serve::StatusCode::kNotFound);
        serve::Result<std::vector<Value>> short_x = client.spmv(
            serve::SpmvRequest{"ranker",
                               std::vector<Value>{1.0}, {}});
        EXPECT_EQ(short_x.status().code(),
                  serve::StatusCode::kInvalidOperand);
        ts.server->shutdown();
    }
}

TEST(NetEndToEnd, OverloadedSurvivesTheWireUnderSaturation)
{
    for (const int threads : threadCounts()) {
        // Room for one pin per worker plus 2 queued requests.
        TestServer ts("sat", threads, /*max_inflight=*/threads + 2);
        testing::WorkerPin pin(ts.server->session(), "ranker",
                               net::demoVector(0));
        ASSERT_TRUE(pin.pinned()) << "threads " << threads;
        net::Client client = ts.connect(false);
        serve::RequestOptions burst;
        burst.admission = serve::Admission::kFailFast;
        int outstanding = 0;
        for (int i = 0; i < 128; ++i)
            if (client.sendSpmv(serve::SpmvRequest{
                    "ranker", net::demoVector(i), burst}) != 0)
                ++outstanding;
        ASSERT_EQ(outstanding, 128);
        // Every worker is held, so the 2 admitted requests stay
        // queued and the first 126 answers are the rejections.
        int ok = 0, overloaded = 0;
        for (int i = 0; i < 126; ++i) {
            const auto resp = client.readSpmvResponse();
            ASSERT_TRUE(resp.has_value());
            EXPECT_EQ(resp->result.status().code(),
                      serve::StatusCode::kOverloaded);
            if (resp->result.status().code() ==
                serve::StatusCode::kOverloaded)
                ++overloaded;
        }
        pin.release();
        for (int i = 0; i < 2; ++i) {
            const auto resp = client.readSpmvResponse();
            ASSERT_TRUE(resp.has_value());
            EXPECT_TRUE(resp->result.ok())
                << resp->result.status().toString();
            if (resp->result.ok())
                ++ok;
        }
        EXPECT_EQ(ok, 2);
        EXPECT_EQ(overloaded, 126);
        EXPECT_EQ(ts.server->session().overloadRejects(), 126u);
        ts.server->shutdown();
    }
}

TEST(NetEndToEnd, PerConnectionInflightCapAnswersOverloaded)
{
    TestServer ts("conncap", 2, /*max_inflight=*/0,
                  /*max_inflight_per_conn=*/1);
    testing::WorkerPin pin(ts.server->session(), "ranker",
                           net::demoVector(0));
    ASSERT_TRUE(pin.pinned());
    net::Client client = ts.connect(false);
    int outstanding = 0;
    for (int i = 0; i < 64; ++i)
        if (client.sendSpmv(serve::SpmvRequest{
                "ranker", net::demoVector(i), {}}) != 0)
            ++outstanding;
    ASSERT_EQ(outstanding, 64);
    // The first request takes the connection's one slot and stays
    // queued behind the held workers; the other 63 hit the wall.
    int ok = 0, overloaded = 0;
    for (int i = 0; i < 63; ++i) {
        const auto resp = client.readSpmvResponse();
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->result.status().code(),
                  serve::StatusCode::kOverloaded);
        if (resp->result.status().code() ==
            serve::StatusCode::kOverloaded)
            ++overloaded;
    }
    pin.release();
    const auto last = client.readSpmvResponse();
    ASSERT_TRUE(last.has_value());
    EXPECT_TRUE(last->result.ok()) << last->result.status().toString();
    if (last->result.ok())
        ++ok;
    EXPECT_EQ(ok, 1);
    EXPECT_EQ(overloaded, 63);
    // The per-connection wall, not the (unbounded) global gate.
    EXPECT_EQ(ts.server->session().overloadRejects(), 0u);
    ts.server->shutdown();
}

// --------------------------------------------------------------
// Raw-socket fault injection
// --------------------------------------------------------------

/** A raw byte-level peer (no Client framing — that is the point). */
struct RawPeer
{
    net::Fd fd;

    explicit RawPeer(const std::string& path)
    {
        std::string error;
        fd = net::connectUnix(path, error);
        EXPECT_TRUE(fd.valid()) << error;
    }

    void
    send(const void* bytes, std::size_t n)
    {
        EXPECT_TRUE(net::writeFull(fd.get(), bytes, n));
    }

    void
    send(const net::Buffer& bytes)
    {
        send(bytes.data(), bytes.size());
    }

    /** Read one whole frame (expects the server to answer). */
    bool
    readFrame(net::FrameHeader& header, net::Buffer& payload)
    {
        std::uint8_t hb[net::kHeaderBytes];
        if (net::readFull(fd.get(), hb, net::kHeaderBytes) !=
            net::IoResult::kOk)
            return false;
        if (net::decodeHeader(hb, net::kDefaultMaxFrameBytes, header))
            return false;
        payload.resize(header.payloadBytes);
        return payload.empty() ||
            net::readFull(fd.get(), payload.data(),
                          payload.size()) == net::IoResult::kOk;
    }

    /** True when the server closed our stream (clean EOF or reset —
     *  either way, no hang and no partial frame). */
    bool
    closedByServer()
    {
        std::uint8_t byte = 0;
        return net::readFull(fd.get(), &byte, 1) !=
            net::IoResult::kOk;
    }
};

TEST(NetFaults, BadMagicGetsTypedErrorThenClose)
{
    TestServer ts("badmagic", 1);
    RawPeer peer(ts.options.unixPath);
    std::uint8_t junk[net::kHeaderBytes];
    std::memset(junk, 0x5a, sizeof(junk));
    peer.send(junk, sizeof(junk));
    net::FrameHeader header;
    net::Buffer payload;
    ASSERT_TRUE(peer.readFrame(header, payload));
    EXPECT_EQ(header.op, net::Op::kError);
    const auto err = net::decodeError(payload.data(), payload.size());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->error, net::WireError::kBadMagic);
    EXPECT_TRUE(peer.closedByServer());
    ts.server->shutdown();
}

TEST(NetFaults, BadVersionGetsTypedErrorThenClose)
{
    TestServer ts("badver", 1);
    RawPeer peer(ts.options.unixPath);
    net::FrameHeader h;
    h.op = net::Op::kPing;
    std::uint8_t bytes[net::kHeaderBytes];
    net::encodeHeader(h, bytes);
    bytes[4] = 0x63; // version 99
    peer.send(bytes, sizeof(bytes));
    net::FrameHeader header;
    net::Buffer payload;
    ASSERT_TRUE(peer.readFrame(header, payload));
    EXPECT_EQ(header.op, net::Op::kError);
    const auto err = net::decodeError(payload.data(), payload.size());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->error, net::WireError::kBadVersion);
    EXPECT_TRUE(peer.closedByServer());
    ts.server->shutdown();
}

TEST(NetFaults, OversizedLengthPrefixGetsTypedErrorThenClose)
{
    TestServer ts("oversize", 1);
    RawPeer peer(ts.options.unixPath);
    net::FrameHeader h;
    h.op = net::Op::kSpmv;
    h.id = 99;
    h.payloadBytes = net::kDefaultMaxFrameBytes + 1;
    std::uint8_t bytes[net::kHeaderBytes];
    net::encodeHeader(h, bytes);
    peer.send(bytes, sizeof(bytes));
    net::FrameHeader header;
    net::Buffer payload;
    ASSERT_TRUE(peer.readFrame(header, payload));
    EXPECT_EQ(header.op, net::Op::kError);
    EXPECT_EQ(header.id, 99u); // answered on the offending id
    const auto err = net::decodeError(payload.data(), payload.size());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->error, net::WireError::kOversized);
    EXPECT_TRUE(peer.closedByServer());
    ts.server->shutdown();
}

TEST(NetFaults, UnknownOpIsRecoverable)
{
    TestServer ts("unknownop", 1);
    RawPeer peer(ts.options.unixPath);
    net::FrameHeader h;
    h.id = 41;
    h.payloadBytes = 4;
    std::uint8_t bytes[net::kHeaderBytes];
    net::encodeHeader(h, bytes);
    bytes[6] = 0x42; // undefined op
    peer.send(bytes, sizeof(bytes));
    const std::uint8_t payload_bytes[4] = {1, 2, 3, 4};
    peer.send(payload_bytes, 4);

    net::FrameHeader header;
    net::Buffer payload;
    ASSERT_TRUE(peer.readFrame(header, payload));
    EXPECT_EQ(header.op, net::Op::kError);
    EXPECT_EQ(header.id, 41u);
    const auto err = net::decodeError(payload.data(), payload.size());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->error, net::WireError::kUnknownOp);

    // The connection survives: a valid ping still round-trips.
    peer.send(net::frameMessage(net::Op::kPing, 42, {}));
    ASSERT_TRUE(peer.readFrame(header, payload));
    EXPECT_EQ(header.op, net::Op::kPong);
    EXPECT_EQ(header.id, 42u);
    ts.server->shutdown();
}

TEST(NetFaults, MalformedPayloadIsRecoverable)
{
    TestServer ts("malformed", 1);
    RawPeer peer(ts.options.unixPath);
    // A kSpmv frame whose payload is garbage.
    net::Buffer garbage(16, 0xee);
    peer.send(net::frameMessage(net::Op::kSpmv, 7, garbage));
    net::FrameHeader header;
    net::Buffer payload;
    ASSERT_TRUE(peer.readFrame(header, payload));
    EXPECT_EQ(header.op, net::Op::kError);
    EXPECT_EQ(header.id, 7u);
    const auto err = net::decodeError(payload.data(), payload.size());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->error, net::WireError::kMalformedPayload);

    // Still serving.
    peer.send(net::frameMessage(net::Op::kPing, 8, {}));
    ASSERT_TRUE(peer.readFrame(header, payload));
    EXPECT_EQ(header.op, net::Op::kPong);
    ts.server->shutdown();
}

TEST(NetFaults, ResponseOpSentToServerIsRecoverable)
{
    TestServer ts("respop", 1);
    RawPeer peer(ts.options.unixPath);
    peer.send(net::frameMessage(net::Op::kPong, 3, {}));
    net::FrameHeader header;
    net::Buffer payload;
    ASSERT_TRUE(peer.readFrame(header, payload));
    EXPECT_EQ(header.op, net::Op::kError);
    const auto err = net::decodeError(payload.data(), payload.size());
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->error, net::WireError::kUnknownOp);
    peer.send(net::frameMessage(net::Op::kPing, 4, {}));
    ASSERT_TRUE(peer.readFrame(header, payload));
    EXPECT_EQ(header.op, net::Op::kPong);
    ts.server->shutdown();
}

TEST(NetFaults, MidFrameDisconnectsNeverWedgeTheServer)
{
    TestServer ts("midframe", 2);
    // Disconnect at every interesting cut point: mid-header,
    // between header and payload, and mid-payload.
    serve::SpmvRequest req{"ranker", net::demoVector(1), {}};
    net::Buffer payload;
    net::encodeSpmvRequest(req, payload);
    const net::Buffer frame =
        net::frameMessage(net::Op::kSpmv, 5, payload);
    const std::size_t cuts[] = {1, net::kHeaderBytes / 2,
                                net::kHeaderBytes,
                                net::kHeaderBytes + 3,
                                frame.size() - 1};
    for (const std::size_t cut : cuts) {
        RawPeer peer(ts.options.unixPath);
        peer.send(frame.data(), cut);
        peer.fd.reset(); // vanish mid-frame
    }
    // The server is still fully alive for a well-behaved client.
    net::Client client = ts.connect(false);
    serve::Result<std::vector<Value>> r = client.spmv(
        serve::SpmvRequest{"ranker", net::demoVector(2), {}});
    EXPECT_TRUE(r.ok()) << r.status().toString();
    ts.server->shutdown();
}

// --------------------------------------------------------------
// Faults and lifecycle
// --------------------------------------------------------------

TEST(NetLifecycle, DisconnectWithInflightReleasesAdmissionSlots)
{
    for (const int threads : threadCounts()) {
        // Room for one pin per worker plus 4 requests: if a
        // vanished client leaked its slots, the follow-up client
        // would starve into kOverloaded.
        const Index gate = threads + 4;
        TestServer ts("leak", threads, gate);
        {
            testing::WorkerPin pin(ts.server->session(), "ranker",
                                   net::demoVector(0));
            ASSERT_TRUE(pin.pinned()) << "threads " << threads;
            for (int round = 0; round < 3; ++round) {
                net::Client client = ts.connect(false);
                for (int i = 0; i < 16; ++i)
                    client.sendSpmv(serve::SpmvRequest{
                        "ranker", net::demoVector(i), {}});
                client.close(); // vanish with everything in flight
            }
            // The held workers keep the admitted requests queued
            // until their clients are gone: the gate fills.
            const auto deadline = std::chrono::steady_clock::now() +
                std::chrono::seconds(30);
            while (ts.server->session().stats().submitted.load() <
                       static_cast<std::uint64_t>(gate) &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            EXPECT_EQ(ts.server->session().stats().submitted.load(),
                      static_cast<std::uint64_t>(gate));
        } // the pin lets go
        // SIGPIPE from the server writing those responses into the
        // dead sockets must not exist (MSG_NOSIGNAL) — and every
        // admitted slot must come back. The queued requests are
        // still computing when the pin lets go, so retry briefly: a
        // leaked slot stays leaked forever, a busy slot frees as
        // soon as its request is delivered.
        net::Client client = ts.connect(false);
        bool served = false;
        for (int attempt = 0; attempt < 400 && !served; ++attempt) {
            serve::Result<std::vector<Value>> r = client.spmv(
                serve::SpmvRequest{"ranker", net::demoVector(0), {}});
            served = r.ok();
            if (!served) {
                ASSERT_EQ(r.status().code(),
                          serve::StatusCode::kOverloaded)
                    << r.status().toString();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        }
        EXPECT_TRUE(served)
            << "admission slots never came back after the "
               "disconnects — leaked tickets";
        ts.server->shutdown();
    }
}

TEST(NetLifecycle, ShutdownMidStreamDeliversShuttingDown)
{
    for (const int threads : threadCounts()) {
        TestServer ts("shut", threads);
        net::Client client = ts.connect(false);
        // Prove the connection works, then drain the session while
        // the connection stays up.
        EXPECT_TRUE(client.ping().ok());
        ts.server->beginShutdown();
        // The still-open connection now gets typed kShuttingDown
        // responses, not a slammed socket.
        serve::Result<std::vector<Value>> r = client.spmv(
            serve::SpmvRequest{"ranker", net::demoVector(0), {}});
        EXPECT_EQ(r.status().code(),
                  serve::StatusCode::kShuttingDown)
            << r.status().toString();
        ts.server->shutdown();
    }
}

TEST(NetLifecycle, ServerShutdownWithIdleConnectionsIsClean)
{
    TestServer ts("idle", 2);
    net::Client a = ts.connect(false);
    net::Client b = ts.connect(true);
    EXPECT_TRUE(a.ping().ok());
    EXPECT_TRUE(b.ping().ok());
    // Both connections parked in read; shutdown must wake and join
    // them without hanging.
    ts.server->shutdown();
    EXPECT_FALSE(a.ping().ok());
}

/**
 * The satellite-4 regression: Session::close() must not return
 * while any completion callback is still running, and the gate's
 * condition variable must not be destroyed under a worker still
 * inside notify (the release()-after-unlock window this PR fixed).
 * The race is made observable for TSan: callbacks write a
 * mutex-guarded cell; after close()+join the main thread writes the
 * same cell WITHOUT the mutex — a callback outliving close() is a
 * data race TSan reports, and the Session destruction directly
 * after close() exercises the CV-destruction window.
 */
TEST(NetLifecycle, CloseVsCallbackTeardownRace)
{
    for (const int threads : threadCounts()) {
        for (int iter = 0; iter < 8; ++iter) {
            serve::MatrixRegistry registry;
            net::populateDemoRegistry(registry);
            serve::SessionOptions options;
            options.threads = threads;
            auto session = std::make_unique<serve::Session>(
                registry, options);

            std::mutex cell_mutex;
            std::uint64_t cell = 0;
            std::atomic<bool> stop{false};
            std::thread submitter([&] {
                int seed = 0;
                while (!stop.load(std::memory_order_acquire)) {
                    session->submit(
                        serve::SpmvRequest{"ranker",
                                           net::demoVector(seed++),
                                           {}},
                        [&](serve::Result<std::vector<Value>> r) {
                            std::lock_guard<std::mutex> lock(
                                cell_mutex);
                            cell += r.ok() ? 1 : 0;
                        });
                }
            });
            // Let requests pile into the pipeline, then slam the
            // door while the submitter keeps pushing.
            std::this_thread::sleep_for(
                std::chrono::microseconds(200 + 137 * iter));
            session->close();
            stop.store(true, std::memory_order_release);
            submitter.join();
            // Contract: no callback is running anymore. This
            // unsynchronized write races with any that is.
            cell = 0;
            // And destroying the session right away exercises the
            // gate-CV teardown path close() just unblocked from.
            session.reset();
        }
    }
}

} // namespace
} // namespace smash
