#include "runtime/compiled_model.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "nn/plan.hh"
#include "synth/synthesizer.hh"

namespace fpsa
{

namespace
{

constexpr const char *kFormat = "fpsa.compiled_model";

/**
 * The one document version this build writes and reads: v3 carries the
 * resource-demand and execution sections.
 */
constexpr std::int64_t kVersion = 3;

bool
opKindFromName(const std::string &name, OpKind &out)
{
    static const std::pair<const char *, OpKind> kTable[] = {
        {"input", OpKind::Input},
        {"conv2d", OpKind::Conv2d},
        {"fc", OpKind::FullyConnected},
        {"maxpool", OpKind::MaxPool},
        {"avgpool", OpKind::AvgPool},
        {"gavgpool", OpKind::GlobalAvgPool},
        {"relu", OpKind::Relu},
        {"add", OpKind::Add},
        {"concat", OpKind::Concat},
        {"batchnorm", OpKind::BatchNorm},
        {"flatten", OpKind::Flatten},
    };
    for (const auto &[n, k] : kTable) {
        if (name == n) {
            out = k;
            return true;
        }
    }
    return false;
}

bool
roleFromName(const std::string &name, CoreOpRole &out)
{
    static const std::pair<const char *, CoreOpRole> kTable[] = {
        {"weight", CoreOpRole::Weight},
        {"reduce", CoreOpRole::Reduce},
        {"pool", CoreOpRole::Pool},
        {"eltwise", CoreOpRole::Eltwise},
    };
    for (const auto &[n, r] : kTable) {
        if (name == n) {
            out = r;
            return true;
        }
    }
    return false;
}

bool
blockTypeFromName(const std::string &name, BlockType &out)
{
    if (name == "PE")
        out = BlockType::Pe;
    else if (name == "SMB")
        out = BlockType::Smb;
    else if (name == "CLB")
        out = BlockType::Clb;
    else
        return false;
    return true;
}

/**
 * Emit a float as its shortest round-trip decimal (to_chars uniquely
 * identifies the binary32 value and is locale-independent), so saved
 * weights reload bit-identically on any host.  Non-finite weights
 * become null -- the JsonWriter convention -- which load() then
 * rejects as a non-numeric weight element rather than producing a
 * document no JSON consumer can parse.
 */
void
emitFloat(JsonWriter &j, float v)
{
    if (!std::isfinite(v)) {
        j.null();
        return;
    }
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    j.raw(std::string(buf, r.ptr));
}

void
emitShape(JsonWriter &j, const Shape &shape)
{
    j.beginArray();
    for (std::int64_t d : shape)
        j.value(d);
    j.endArray();
}

/**
 * Error-latching reader: accessors return neutral defaults on missing
 * or mistyped members and record the first failure, so deserialization
 * code reads a document linearly and checks `status()` once per
 * section.
 */
class Deser
{
  public:
    std::int64_t
    i64(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = need(obj, key);
        if (!v)
            return 0;
        if (!v->isNumber()) {
            fail(std::string("member '") + key + "' is not a number");
            return 0;
        }
        return v->asInt();
    }

    double
    num(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = need(obj, key);
        if (!v)
            return 0.0;
        // The writer emits null for non-finite values; read as 0.
        if (v->isNull())
            return 0.0;
        if (!v->isNumber()) {
            fail(std::string("member '") + key + "' is not a number");
            return 0.0;
        }
        return v->number();
    }

    bool
    flag(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = need(obj, key);
        if (!v)
            return false;
        if (!v->isBool()) {
            fail(std::string("member '") + key + "' is not a bool");
            return false;
        }
        return v->boolean();
    }

    std::string
    str(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = need(obj, key);
        if (!v)
            return {};
        if (!v->isString()) {
            fail(std::string("member '") + key + "' is not a string");
            return {};
        }
        return v->string();
    }

    const JsonValue &
    arr(const JsonValue &obj, const char *key)
    {
        static const JsonValue empty = JsonValue::makeArray({});
        const JsonValue *v = need(obj, key);
        if (!v)
            return empty;
        if (!v->isArray()) {
            fail(std::string("member '") + key + "' is not an array");
            return empty;
        }
        return *v;
    }

    const JsonValue &
    obj(const JsonValue &parent, const char *key)
    {
        static const JsonValue empty = JsonValue::makeObject({});
        const JsonValue *v = need(parent, key);
        if (!v)
            return empty;
        if (!v->isObject()) {
            fail(std::string("member '") + key + "' is not an object");
            return empty;
        }
        return *v;
    }

    void
    fail(std::string why)
    {
        if (status_.ok()) {
            status_ = Status::error(StatusCode::InvalidArgument,
                                    "compiled model: " + std::move(why));
        }
    }

    const Status &status() const { return status_; }

  private:
    const JsonValue *
    need(const JsonValue &parent, const char *key)
    {
        const JsonValue *v = parent.find(key);
        if (!v)
            fail(std::string("missing member '") + key + "'");
        return v;
    }

    Status status_;
};

Shape
readShape(Deser &d, const JsonValue &obj, const char *key)
{
    Shape shape;
    for (const JsonValue &dim : d.arr(obj, key).array()) {
        if (!dim.isNumber()) {
            d.fail(std::string("shape member in '") + key +
                   "' is not a number");
            break;
        }
        shape.push_back(dim.asInt());
    }
    return shape;
}

// ------------------------------------------------------------- sections

void
emitOptions(JsonWriter &j, const CompileOptions &o)
{
    j.beginObject();
    j.field("duplicationDegree", o.duplicationDegree);
    j.field("runPlaceAndRoute", o.runPlaceAndRoute);
    j.key("synth").beginObject();
    j.field("crossbarRows", o.synth.crossbarRows);
    j.field("crossbarCols", o.synth.crossbarCols);
    j.field("ioBits", o.synth.ioBits);
    j.field("weightBits", o.synth.weightBits);
    j.field("maxWeightLevel",
            static_cast<std::int64_t>(o.synth.maxWeightLevel));
    j.endObject();
    j.key("allocation").beginObject();
    j.field("pesPerClb", o.allocation.pesPerClb);
    j.field("smbsPerEdge", o.allocation.smbsPerEdge);
    j.endObject();
    j.key("mapper").beginObject();
    j.field("busWidth", o.mapper.busWidth);
    j.field("controlWidth", o.mapper.controlWidth);
    j.field("pesPerClb", o.mapper.pesPerClb);
    j.endObject();
    j.key("perf").beginObject();
    j.field("ioBits", o.perf.ioBits);
    j.field("wireDelayPerBit", o.perf.wireDelayPerBit);
    j.endObject();
    j.endObject();
}

CompileOptions
readOptions(Deser &d, const JsonValue &v)
{
    // PnR knobs are deliberately not persisted: they shaped the saved
    // artifact but are irrelevant to serving it.  Loaded models keep
    // default PnrOptions.
    CompileOptions o;
    o.duplicationDegree = d.i64(v, "duplicationDegree");
    o.runPlaceAndRoute = d.flag(v, "runPlaceAndRoute");
    const JsonValue &synth = d.obj(v, "synth");
    o.synth.crossbarRows = static_cast<int>(d.i64(synth, "crossbarRows"));
    o.synth.crossbarCols = static_cast<int>(d.i64(synth, "crossbarCols"));
    o.synth.ioBits = static_cast<int>(d.i64(synth, "ioBits"));
    o.synth.weightBits = static_cast<int>(d.i64(synth, "weightBits"));
    o.synth.maxWeightLevel =
        static_cast<std::int32_t>(d.i64(synth, "maxWeightLevel"));
    const JsonValue &alloc = d.obj(v, "allocation");
    o.allocation.pesPerClb = static_cast<int>(d.i64(alloc, "pesPerClb"));
    o.allocation.smbsPerEdge =
        static_cast<int>(d.i64(alloc, "smbsPerEdge"));
    const JsonValue &mapper = d.obj(v, "mapper");
    o.mapper.busWidth = static_cast<int>(d.i64(mapper, "busWidth"));
    o.mapper.controlWidth =
        static_cast<int>(d.i64(mapper, "controlWidth"));
    o.mapper.pesPerClb = static_cast<int>(d.i64(mapper, "pesPerClb"));
    const JsonValue &perf = d.obj(v, "perf");
    o.perf.ioBits = static_cast<int>(d.i64(perf, "ioBits"));
    o.perf.wireDelayPerBit = d.num(perf, "wireDelayPerBit");
    return o;
}

void
emitGraph(JsonWriter &j, const Graph &graph)
{
    j.beginObject();
    j.key("nodes").beginArray();
    for (const GraphNode &n : graph.nodes()) {
        j.beginObject();
        j.field("kind", opKindName(n.kind));
        j.field("name", n.name);
        j.key("inputs").beginArray();
        for (NodeId in : n.inputs)
            j.value(static_cast<std::int64_t>(in));
        j.endArray();
        j.key("attrs").beginObject();
        j.field("kernel", n.attrs.kernel);
        j.field("stride", n.attrs.stride);
        j.field("pad", n.attrs.pad);
        j.field("outChannels", n.attrs.outChannels);
        j.field("groups", n.attrs.groups);
        j.field("units", n.attrs.units);
        j.endObject();
        j.key("outShape");
        emitShape(j, n.outShape);
        j.key("weights");
        if (n.weights.has_value()) {
            j.beginObject();
            j.key("shape");
            emitShape(j, n.weights->shape());
            j.key("data").beginArray();
            for (std::int64_t i = 0; i < n.weights->numel(); ++i)
                emitFloat(j, (*n.weights)[i]);
            j.endArray();
            j.endObject();
        } else {
            j.null();
        }
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

/**
 * Rebuild a Graph through its public construction API, re-running
 * shape inference, then verify the inferred shapes match the saved
 * ones -- a strong end-to-end check that the document describes a
 * coherent model.
 */
StatusOr<Graph>
readGraph(const JsonValue &v)
{
    Deser d;
    const auto &nodes = d.arr(v, "nodes").array();
    if (!d.status().ok())
        return d.status();
    if (nodes.empty()) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: graph has no nodes");
    }

    Graph graph;
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const JsonValue &n = nodes[id];
        const std::string kind_name = d.str(n, "kind");
        const std::string name = d.str(n, "name");
        Shape out_shape = readShape(d, n, "outShape");
        if (!d.status().ok())
            return d.status();

        OpKind kind;
        if (!opKindFromName(kind_name, kind)) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: unknown op kind '" +
                                     kind_name + "'");
        }

        if (kind == OpKind::Input) {
            if (shapeNumel(out_shape) <= 0) {
                return Status::error(
                    StatusCode::InvalidArgument,
                    "compiled model: input node has empty shape");
            }
            graph.addInput(out_shape, name);
            continue;
        }

        OpAttrs attrs;
        const JsonValue &a = d.obj(n, "attrs");
        attrs.kernel = static_cast<int>(d.i64(a, "kernel"));
        attrs.stride = static_cast<int>(d.i64(a, "stride"));
        attrs.pad = static_cast<int>(d.i64(a, "pad"));
        attrs.outChannels = static_cast<int>(d.i64(a, "outChannels"));
        attrs.groups = static_cast<int>(d.i64(a, "groups"));
        attrs.units = static_cast<int>(d.i64(a, "units"));

        std::vector<NodeId> inputs;
        for (const JsonValue &in : d.arr(n, "inputs").array()) {
            const std::int64_t ref = in.asInt();
            if (!in.isNumber() || ref < 0 ||
                ref >= static_cast<std::int64_t>(id)) {
                return Status::error(
                    StatusCode::InvalidArgument,
                    "compiled model: node '" + name +
                        "' references an out-of-range input");
            }
            inputs.push_back(static_cast<NodeId>(ref));
        }
        if (inputs.empty()) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: op node '" + name +
                                     "' has no inputs");
        }
        if (!d.status().ok())
            return d.status();

        const NodeId added = graph.addOp(kind, inputs, attrs, name);
        if (graph.node(added).outShape != out_shape) {
            return Status::error(
                StatusCode::InvalidArgument,
                "compiled model: node '" + name +
                    "' saved shape " + shapeToString(out_shape) +
                    " disagrees with inferred " +
                    shapeToString(graph.node(added).outShape));
        }
    }

    // Weights, second pass (node ids are now stable).
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const JsonValue &w = nodes[id]["weights"];
        if (w.isNull())
            continue;
        Deser wd;
        Shape shape = readShape(wd, w, "shape");
        const auto &data = wd.arr(w, "data").array();
        if (!wd.status().ok())
            return wd.status();
        if (shapeNumel(shape) != static_cast<std::int64_t>(data.size())) {
            return Status::error(
                StatusCode::InvalidArgument,
                "compiled model: weight data of node " +
                    std::to_string(id) + " does not match its shape");
        }
        std::vector<float> values;
        values.reserve(data.size());
        for (const JsonValue &x : data) {
            if (!x.isNumber()) {
                return Status::error(
                    StatusCode::InvalidArgument,
                    "compiled model: non-numeric weight element in "
                    "node " + std::to_string(id));
            }
            values.push_back(static_cast<float>(x.number()));
        }
        graph.node(static_cast<NodeId>(id)).weights =
            Tensor(std::move(shape), std::move(values));
    }
    return graph;
}

void
emitSynthesis(JsonWriter &j, const SynthesisSummary &s)
{
    j.beginObject();
    j.key("options").beginObject();
    j.field("crossbarRows", s.options.crossbarRows);
    j.field("crossbarCols", s.options.crossbarCols);
    j.field("ioBits", s.options.ioBits);
    j.field("weightBits", s.options.weightBits);
    j.field("maxWeightLevel",
            static_cast<std::int64_t>(s.options.maxWeightLevel));
    j.endObject();
    j.field("pipelineDepth", s.pipelineDepth);
    j.key("groups").beginArray();
    for (const SynthGroup &g : s.groups) {
        j.beginObject();
        j.field("name", g.name);
        j.field("sourceNode", static_cast<std::int64_t>(g.sourceNode));
        j.field("role", coreOpRoleName(g.role));
        j.field("tilesPerInstance", g.tilesPerInstance);
        j.field("instances", g.instances);
        j.field("macsPerInstance", g.macsPerInstance);
        j.field("utilization", g.utilization);
        j.field("stageDepth", g.stageDepth);
        j.key("preds").beginArray();
        for (int p : g.preds)
            j.value(p);
        j.endArray();
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

StatusOr<SynthesisSummary>
readSynthesis(const JsonValue &v)
{
    Deser d;
    SynthesisSummary s;
    const JsonValue &o = d.obj(v, "options");
    s.options.crossbarRows = static_cast<int>(d.i64(o, "crossbarRows"));
    s.options.crossbarCols = static_cast<int>(d.i64(o, "crossbarCols"));
    s.options.ioBits = static_cast<int>(d.i64(o, "ioBits"));
    s.options.weightBits = static_cast<int>(d.i64(o, "weightBits"));
    s.options.maxWeightLevel =
        static_cast<std::int32_t>(d.i64(o, "maxWeightLevel"));
    s.pipelineDepth = static_cast<int>(d.i64(v, "pipelineDepth"));
    for (const JsonValue &gv : d.arr(v, "groups").array()) {
        SynthGroup g;
        g.name = d.str(gv, "name");
        g.sourceNode = static_cast<NodeId>(d.i64(gv, "sourceNode"));
        const std::string role = d.str(gv, "role");
        if (!role.empty() && !roleFromName(role, g.role)) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: unknown core-op role '" +
                                     role + "'");
        }
        g.tilesPerInstance = d.i64(gv, "tilesPerInstance");
        g.instances = d.i64(gv, "instances");
        g.macsPerInstance = d.i64(gv, "macsPerInstance");
        g.utilization = d.num(gv, "utilization");
        g.stageDepth = static_cast<int>(d.i64(gv, "stageDepth"));
        for (const JsonValue &p : d.arr(gv, "preds").array()) {
            if (!p.isNumber()) {
                d.fail("non-numeric pred in group '" + g.name + "'");
                break;
            }
            g.preds.push_back(static_cast<int>(p.asInt()));
        }
        s.groups.push_back(std::move(g));
    }
    if (!d.status().ok())
        return d.status();
    if (s.groups.empty()) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: synthesis has no groups");
    }
    return s;
}

void
emitAllocation(JsonWriter &j, const AllocationResult &a)
{
    j.beginObject();
    j.field("duplicationDegree", a.duplicationDegree);
    j.field("totalPes", a.totalPes);
    j.field("maxIterations", a.maxIterations);
    j.field("replicas", a.replicas);
    j.field("smbBlocks", a.smbBlocks);
    j.field("clbBlocks", a.clbBlocks);
    j.key("groups").beginArray();
    for (const GroupAllocation &g : a.groups) {
        j.beginObject();
        j.field("group", g.group);
        j.field("duplication", g.duplication);
        j.field("pes", g.pes);
        j.field("iterations", g.iterations);
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

StatusOr<AllocationResult>
readAllocation(const JsonValue &v)
{
    Deser d;
    AllocationResult a;
    a.duplicationDegree = d.i64(v, "duplicationDegree");
    a.totalPes = d.i64(v, "totalPes");
    a.maxIterations = d.i64(v, "maxIterations");
    a.replicas = d.i64(v, "replicas");
    a.smbBlocks = d.i64(v, "smbBlocks");
    a.clbBlocks = d.i64(v, "clbBlocks");
    for (const JsonValue &gv : d.arr(v, "groups").array()) {
        GroupAllocation g;
        g.group = static_cast<int>(d.i64(gv, "group"));
        g.duplication = d.i64(gv, "duplication");
        g.pes = d.i64(gv, "pes");
        g.iterations = d.i64(gv, "iterations");
        a.groups.push_back(g);
    }
    if (!d.status().ok())
        return d.status();
    return a;
}

void
emitNetlist(JsonWriter &j, const Netlist &nl)
{
    j.beginObject();
    j.key("blocks").beginArray();
    for (const Block &b : nl.blocks()) {
        j.beginObject();
        j.field("type", blockTypeName(b.type));
        j.field("name", b.name);
        j.field("groupId", static_cast<std::int64_t>(b.groupId));
        j.endObject();
    }
    j.endArray();
    j.key("nets").beginArray();
    for (const Net &n : nl.nets()) {
        j.beginObject();
        j.field("name", n.name);
        j.field("driver", static_cast<std::int64_t>(n.driver));
        j.key("sinks").beginArray();
        for (BlockId s : n.sinks)
            j.value(static_cast<std::int64_t>(s));
        j.endArray();
        j.field("width", n.width);
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

StatusOr<Netlist>
readNetlist(const JsonValue &v)
{
    Deser d;
    Netlist nl;
    for (const JsonValue &bv : d.arr(v, "blocks").array()) {
        BlockType type;
        const std::string type_name = d.str(bv, "type");
        if (!d.status().ok())
            return d.status();
        if (!blockTypeFromName(type_name, type)) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: unknown block type '" +
                                     type_name + "'");
        }
        nl.addBlock(type, d.str(bv, "name"),
                    static_cast<std::int32_t>(d.i64(bv, "groupId")));
    }
    const std::int64_t block_count =
        static_cast<std::int64_t>(nl.blocks().size());
    for (const JsonValue &nv : d.arr(v, "nets").array()) {
        const std::int64_t driver = d.i64(nv, "driver");
        std::vector<BlockId> sinks;
        for (const JsonValue &s : d.arr(nv, "sinks").array()) {
            if (!s.isNumber()) {
                d.fail("non-numeric net sink");
                break;
            }
            sinks.push_back(static_cast<BlockId>(s.asInt()));
        }
        if (!d.status().ok())
            return d.status();
        bool in_range = driver >= 0 && driver < block_count;
        for (BlockId s : sinks)
            in_range = in_range && s >= 0 && s < block_count;
        if (!in_range) {
            return Status::error(
                StatusCode::InvalidArgument,
                "compiled model: net references an out-of-range block");
        }
        nl.addNet(d.str(nv, "name"), static_cast<BlockId>(driver),
                  std::move(sinks), static_cast<int>(d.i64(nv, "width")));
    }
    if (!d.status().ok())
        return d.status();
    return nl;
}

void
emitPerformance(JsonWriter &j, const PerfReport &p)
{
    j.beginObject();
    j.field("throughput", p.throughput);
    j.field("latencyNs", p.latency);
    j.field("opsPerSecond", p.performance);
    j.field("areaMm2", p.area);
    j.field("energyPerSamplePj", p.energyPerSample);
    j.field("computePerPeNs", p.computePerPe);
    j.field("commPerPeNs", p.commPerPe);
    j.field("pes", p.pes);
    j.field("duplicationDegree", p.duplicationDegree);
    j.field("iterations", p.iterations);
    j.endObject();
}

PerfReport
readPerformance(Deser &d, const JsonValue &v)
{
    PerfReport p;
    p.throughput = d.num(v, "throughput");
    p.latency = d.num(v, "latencyNs");
    p.performance = d.num(v, "opsPerSecond");
    p.area = d.num(v, "areaMm2");
    p.energyPerSample = d.num(v, "energyPerSamplePj");
    p.computePerPe = d.num(v, "computePerPeNs");
    p.commPerPe = d.num(v, "commPerPeNs");
    p.pes = d.i64(v, "pes");
    p.duplicationDegree = d.i64(v, "duplicationDegree");
    p.iterations = d.i64(v, "iterations");
    return p;
}

void
emitResourceDemand(JsonWriter &j, const ResourceDemand &d)
{
    j.beginObject();
    j.field("peBlocks", d.peBlocks);
    j.field("smbBlocks", d.smbBlocks);
    j.field("clbBlocks", d.clbBlocks);
    j.field("routingTracks", d.routingTracks);
    j.endObject();
}

ResourceDemand
readResourceDemand(Deser &d, const JsonValue &v)
{
    ResourceDemand demand;
    demand.peBlocks = d.i64(v, "peBlocks");
    demand.smbBlocks = d.i64(v, "smbBlocks");
    demand.clbBlocks = d.i64(v, "clbBlocks");
    demand.routingTracks = d.i64(v, "routingTracks");
    return demand;
}

Status
validateArtifacts(const CompiledModel::Artifacts &a)
{
    auto invalid = [](std::string why) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: " + std::move(why));
    };
    if (a.graph.size() == 0)
        return invalid("graph has no nodes");
    if (a.graph.nodes().front().kind != OpKind::Input)
        return invalid("graph does not start with an input node");
    for (const GraphNode &n : a.graph.nodes()) {
        if (n.kind != OpKind::Conv2d && n.kind != OpKind::FullyConnected)
            continue;
        if (!n.weights.has_value()) {
            return invalid("node '" + n.name +
                           "' has no materialized weights; run "
                           "randomizeWeights (or a trainer) before "
                           "compiling");
        }
        // Weight geometry must match the node, or the executors'
        // kernels would assert mid-request and kill the server (the
        // shape a corrupt artifact is most likely to get wrong).
        if (n.inputs.empty())
            return invalid("node '" + n.name + "' has no inputs");
        const Shape &in =
            a.graph.node(n.inputs.front()).outShape;
        Shape expected;
        if (n.kind == OpKind::FullyConnected) {
            expected = {n.attrs.units, shapeNumel(in)};
        } else {
            if (n.attrs.groups < 1 || in.size() != 3)
                return invalid("node '" + n.name +
                               "' has malformed conv geometry");
            expected = {n.attrs.outChannels,
                        in.front() / n.attrs.groups, n.attrs.kernel,
                        n.attrs.kernel};
        }
        if (n.weights->shape() != expected) {
            return invalid("node '" + n.name + "' weight shape " +
                           shapeToString(n.weights->shape()) +
                           " does not match the expected " +
                           shapeToString(expected));
        }
    }
    if (a.synthesis.groups.empty())
        return invalid("synthesis summary has no groups");
    if (a.allocation.totalPes <= 0)
        return invalid("allocation has no PEs");
    // Negative demand would be admitted against an inflated chip
    // budget (resident sums go negative), bypassing admission control.
    if (a.demand.peBlocks < 0 || a.demand.smbBlocks < 0 ||
        a.demand.clbBlocks < 0 || a.demand.routingTracks < 0) {
        return invalid("resource demand has negative components");
    }
    const std::int64_t blocks =
        static_cast<std::int64_t>(a.netlist.blocks().size());
    for (const Net &n : a.netlist.nets()) {
        bool ok = n.driver >= 0 && n.driver < blocks;
        for (BlockId s : n.sinks)
            ok = ok && s >= 0 && s < blocks;
        if (!ok)
            return invalid("netlist net '" + n.name +
                           "' references an out-of-range block");
    }
    return Status();
}

} // namespace

StatusOr<CompiledModel>
CompiledModel::fromArtifacts(Artifacts artifacts)
{
    Status valid = validateArtifacts(artifacts);
    if (!valid.ok())
        return valid;
    if (artifacts.demand.zero()) {
        // Qualified: the member accessor of the same name would win
        // unqualified lookup inside the class.
        artifacts.demand = fpsa::resourceDemand(artifacts.allocation,
                                                artifacts.netlist);
    }
    return CompiledModel(std::move(artifacts));
}

namespace
{

/**
 * One slot of the derived-artifact cache: built at most once, the
 * failure Status is cached too (a model outside the spiking family
 * should not re-attempt calibration per executor).
 */
template <typename T>
struct DerivedSlot
{
    bool attempted = false;
    Status status;
    std::shared_ptr<const T> value;

    template <typename Build>
    StatusOr<std::shared_ptr<const T>>
    get(std::mutex &mu, Build build)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!attempted) {
            attempted = true;
            StatusOr<T> built = build();
            if (built.ok())
                value = std::make_shared<const T>(
                    std::move(built).value());
            else
                status = built.status();
        }
        if (!status.ok())
            return status;
        return value;
    }
};

} // namespace

struct CompiledModel::DerivedCache
{
    std::mutex mu;
    // One plan per (precision, resolved ISA): tenants that override
    // their model's stamped config get their own packed/quantized
    // panels, tenants that agree share them.  std::map keeps slot
    // addresses stable while new combos are inserted.
    std::map<std::pair<int, int>, DerivedSlot<ExecutionPlan>> plans;
    DerivedSlot<FunctionalSynthesis> synthesis;
};

CompiledModel::CompiledModel(Artifacts artifacts)
    : a_(std::move(artifacts)), cache_(std::make_shared<DerivedCache>())
{
}

StatusOr<std::shared_ptr<const ExecutionPlan>>
CompiledModel::executionPlan() const
{
    return executionPlan(a_.execution.precision,
                         a_.execution.kernelIsa);
}

StatusOr<std::shared_ptr<const ExecutionPlan>>
CompiledModel::executionPlan(PrecisionMode precision,
                             KernelIsa kernelIsa) const
{
    // Key on the *resolved* ISA so Auto and its resolution share one
    // plan (and one copy of the packed weights).
    const KernelIsa resolved = resolveKernelIsa(kernelIsa);
    DerivedSlot<ExecutionPlan> *slot;
    {
        std::lock_guard<std::mutex> lock(cache_->mu);
        slot = &cache_->plans[{static_cast<int>(precision),
                               static_cast<int>(resolved)}];
    }
    return slot->get(cache_->mu, [&] {
        return ExecutionPlan::build(
            a_.graph, PlanOptions{precision, resolved});
    });
}

namespace
{

/**
 * Deterministic probe input for activation-scale calibration: a smooth
 * full-range wave (the value pattern the repo's spiking demos use), so
 * two processes loading the same artifact build identical lowerings.
 */
Tensor
calibrationProbe(const Shape &shape)
{
    Tensor probe(shape);
    for (std::int64_t i = 0; i < probe.numel(); ++i) {
        probe[i] = 0.5f +
                   0.5f * std::sin(static_cast<float>(i) * 0.37f);
    }
    return probe;
}

} // namespace

StatusOr<std::shared_ptr<const FunctionalSynthesis>>
CompiledModel::functionalSynthesis() const
{
    return cache_->synthesis.get(cache_->mu, [this] {
        return synthesizeFunctional(a_.graph,
                                    calibrationProbe(inputShape()),
                                    a_.options.synth);
    });
}

const Shape &
CompiledModel::inputShape() const
{
    return a_.graph.nodes().front().outShape;
}

const Shape &
CompiledModel::outputShape() const
{
    return a_.graph.nodes().back().outShape;
}

std::string
CompiledModel::toJson() const
{
    JsonWriter j;
    j.beginObject();
    j.field("format", kFormat);
    j.field("version", kVersion);
    j.key("options");
    emitOptions(j, a_.options);
    j.key("graph");
    emitGraph(j, a_.graph);
    j.key("synthesis");
    emitSynthesis(j, a_.synthesis);
    j.key("allocation");
    emitAllocation(j, a_.allocation);
    j.key("netlist");
    emitNetlist(j, a_.netlist);
    j.key("timing");
    if (a_.timing.has_value()) {
        j.beginObject();
        j.field("avgNetDelayNs", a_.timing->avgNetDelay);
        j.field("maxNetDelayNs", a_.timing->maxNetDelay);
        j.field("routed", a_.timing->routed);
        j.field("placementHpwl", a_.timing->placementHpwl);
        j.endObject();
    } else {
        j.null();
    }
    j.key("resourceDemand");
    emitResourceDemand(j, a_.demand);
    j.key("execution").beginObject();
    j.field("executor", executorKindName(a_.execution.executor));
    j.field("precision", precisionModeName(a_.execution.precision));
    j.field("kernelIsa", kernelIsaName(a_.execution.kernelIsa));
    j.endObject();
    j.key("performance");
    emitPerformance(j, a_.performance);
    j.key("energy").beginObject();
    j.field("pePj", a_.energy.breakdown.pe);
    j.field("smbPj", a_.energy.breakdown.smb);
    j.field("clbPj", a_.energy.breakdown.clb);
    j.field("routingPj", a_.energy.breakdown.routing);
    j.endObject();
    j.endObject();
    return j.str();
}

StatusOr<CompiledModel>
CompiledModel::fromJson(const std::string &text)
{
    auto doc = parseJson(text);
    if (!doc.ok())
        return doc.status();

    Deser d;
    if (d.str(*doc, "format") != kFormat) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: not a " +
                                 std::string(kFormat) + " document");
    }
    const std::int64_t version = d.i64(*doc, "version");
    if (!d.status().ok())
        return d.status();
    if (version != kVersion) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: unsupported version " +
                                 std::to_string(version) +
                                 " (this build reads version " +
                                 std::to_string(kVersion) + ")");
    }

    Artifacts a;
    a.options = readOptions(d, d.obj(*doc, "options"));
    if (!d.status().ok())
        return d.status();

    auto graph = readGraph(d.obj(*doc, "graph"));
    if (!graph.ok())
        return graph.status();
    a.graph = std::move(graph).value();

    auto synthesis = readSynthesis(d.obj(*doc, "synthesis"));
    if (!synthesis.ok())
        return synthesis.status();
    a.synthesis = std::move(synthesis).value();

    auto allocation = readAllocation(d.obj(*doc, "allocation"));
    if (!allocation.ok())
        return allocation.status();
    a.allocation = std::move(allocation).value();

    auto netlist = readNetlist(d.obj(*doc, "netlist"));
    if (!netlist.ok())
        return netlist.status();
    a.netlist = std::move(netlist).value();

    const JsonValue &timing = (*doc)["timing"];
    if (timing.isObject()) {
        CompiledTiming t;
        t.avgNetDelay = d.num(timing, "avgNetDelayNs");
        t.maxNetDelay = d.num(timing, "maxNetDelayNs");
        t.routed = d.flag(timing, "routed");
        t.placementHpwl = d.num(timing, "placementHpwl");
        a.timing = t;
    }

    a.demand = readResourceDemand(d, d.obj(*doc, "resourceDemand"));

    const JsonValue &execution = d.obj(*doc, "execution");
    const std::string executor = d.str(execution, "executor");
    const std::string precision = d.str(execution, "precision");
    const std::string isa = d.str(execution, "kernelIsa");
    if (!d.status().ok())
        return d.status();
    if (!parseExecutorKind(executor, a.execution.executor) ||
        !parsePrecisionMode(precision, a.execution.precision) ||
        !parseKernelIsa(isa, a.execution.kernelIsa)) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: unknown execution config '" +
                                 executor + "/" + precision + "/" + isa +
                                 "'");
    }

    a.performance = readPerformance(d, d.obj(*doc, "performance"));
    const JsonValue &energy = d.obj(*doc, "energy");
    a.energy.breakdown.pe = d.num(energy, "pePj");
    a.energy.breakdown.smb = d.num(energy, "smbPj");
    a.energy.breakdown.clb = d.num(energy, "clbPj");
    a.energy.breakdown.routing = d.num(energy, "routingPj");
    if (!d.status().ok())
        return d.status();

    return fromArtifacts(std::move(a));
}

Status
CompiledModel::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: cannot open '" + path +
                                 "' for writing");
    }
    const std::string text = toJson();
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.put('\n');
    out.flush();
    if (!out) {
        return Status::error(StatusCode::Internal,
                             "compiled model: short write to '" + path +
                                 "'");
    }
    return Status();
}

StatusOr<CompiledModel>
CompiledModel::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: cannot open '" + path +
                                 "' for reading");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        return Status::error(StatusCode::Internal,
                             "compiled model: read error on '" + path +
                                 "'");
    }
    return fromJson(buffer.str());
}

} // namespace fpsa
