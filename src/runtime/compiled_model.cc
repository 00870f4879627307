#include "runtime/compiled_model.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/json.hh"
#include "nn/plan.hh"
#include "pipeline.hh"
#include "synth/synthesizer.hh"

namespace fpsa
{

namespace
{

constexpr const char *kFormat = "fpsa.compiled_model";

/**
 * The document version this build writes: v4 holds only the stored
 * inputs.  v3 documents also carried every derived section (synthesis,
 * allocation, netlist, demand, performance, energy); they still load,
 * with those sections ignored and re-derived.
 */
constexpr std::int64_t kVersion = 4;
constexpr std::int64_t kOldestReadableVersion = 3;

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
    /** Member `key` as a T; non-integral or out-of-range is a failure. */
    template <typename T>
    T
    integer(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = need(obj, key);
        return v ? asInteger<T>(*v, key) : T{0};
    }

    template <typename T>
    T
    asInteger(const JsonValue &v, const std::string &what)
    {
        // [lo, -lo) is exactly a signed T's range, and both bounds are
        // exact doubles; converting anything outside it is undefined.
        constexpr double lo =
            static_cast<double>(std::numeric_limits<T>::min());
        const double x = v.number();
        if (!v.isNumber() || !(x >= lo && x < -lo) || x != std::trunc(x)) {
            fail("member '" + what + "' is not an integer in range");
            return T{0};
        }
        return static_cast<T>(x);
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
    for (const JsonValue &dim : d.arr(obj, key).array())
        shape.push_back(d.asInteger<std::int64_t>(dim, key));
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
    o.duplicationDegree = d.integer<std::int64_t>(v, "duplicationDegree");
    o.runPlaceAndRoute = d.flag(v, "runPlaceAndRoute");
    const JsonValue &synth = d.obj(v, "synth");
    o.synth.crossbarRows = d.integer<int>(synth, "crossbarRows");
    o.synth.crossbarCols = d.integer<int>(synth, "crossbarCols");
    o.synth.ioBits = d.integer<int>(synth, "ioBits");
    o.synth.weightBits = d.integer<int>(synth, "weightBits");
    o.synth.maxWeightLevel = d.integer<std::int32_t>(synth, "maxWeightLevel");
    const JsonValue &alloc = d.obj(v, "allocation");
    o.allocation.pesPerClb = d.integer<int>(alloc, "pesPerClb");
    o.allocation.smbsPerEdge = d.integer<int>(alloc, "smbsPerEdge");
    const JsonValue &mapper = d.obj(v, "mapper");
    o.mapper.busWidth = d.integer<int>(mapper, "busWidth");
    o.mapper.controlWidth = d.integer<int>(mapper, "controlWidth");
    o.mapper.pesPerClb = d.integer<int>(mapper, "pesPerClb");
    const JsonValue &perf = d.obj(v, "perf");
    o.perf.ioBits = d.integer<int>(perf, "ioBits");
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
        attrs.kernel = d.integer<int>(a, "kernel");
        attrs.stride = d.integer<int>(a, "stride");
        attrs.pad = d.integer<int>(a, "pad");
        attrs.outChannels = d.integer<int>(a, "outChannels");
        attrs.groups = d.integer<int>(a, "groups");
        attrs.units = d.integer<int>(a, "units");

        std::vector<NodeId> inputs;
        for (const JsonValue &in : d.arr(n, "inputs").array()) {
            const NodeId ref = d.asInteger<NodeId>(in, "inputs");
            if (!d.status().ok())
                return d.status();
            if (ref < 0 || ref >= static_cast<NodeId>(id)) {
                return Status::error(
                    StatusCode::InvalidArgument,
                    "compiled model: node '" + name +
                        "' references an out-of-range input");
            }
            inputs.push_back(ref);
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
            // A double beyond float's range has no float to convert to.
            if (!x.isNumber() ||
                !(std::fabs(x.number()) <=
                  std::numeric_limits<float>::max())) {
                return Status::error(
                    StatusCode::InvalidArgument,
                    "compiled model: non-numeric or out-of-range weight "
                    "element in node " + std::to_string(id));
            }
            values.push_back(static_cast<float>(x.number()));
        }
        graph.node(static_cast<NodeId>(id)).weights =
            Tensor(std::move(shape), std::move(values));
    }
    return graph;
}

} // namespace

StatusOr<CompiledModel>
CompiledModel::fromArtifacts(Artifacts artifacts)
{
    // compile() stores a timing exactly when PnR ran.  A document
    // without one but asking for PnR would have to run the search here,
    // which a load never does.
    if (artifacts.timing.has_value() != artifacts.options.runPlaceAndRoute) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: timing must be present "
                             "exactly when runPlaceAndRoute is set");
    }
    if (!artifacts.graph) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: no graph");
    }
    Pipeline pipeline(std::move(artifacts.graph), artifacts.options);
    if (artifacts.timing.has_value())
        pipeline.restorePlaceAndRoute(*artifacts.timing);
    return pipeline.compile(artifacts.execution);
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

CompiledModel::CompiledModel(Artifacts artifacts, const MapArtifact &map,
                             const EvalArtifact &eval)
    : a_(std::move(artifacts)), performance_(eval.performance),
      energy_(eval.energy),
      // Qualified: the member accessor of the same name would win
      // unqualified lookup inside the class.
      demand_(fpsa::resourceDemand(map.allocation, map.netlist)),
      cache_(std::make_shared<DerivedCache>())
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
            *a_.graph, PlanOptions{precision, resolved});
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
        return synthesizeFunctional(*a_.graph,
                                    calibrationProbe(inputShape()),
                                    a_.options.synth);
    });
}

const Shape &
CompiledModel::inputShape() const
{
    return a_.graph->nodes().front().outShape;
}

const Shape &
CompiledModel::outputShape() const
{
    return a_.graph->nodes().back().outShape;
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
    emitGraph(j, *a_.graph);
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
    j.key("execution").beginObject();
    j.field("executor", executorKindName(a_.execution.executor));
    j.field("precision", precisionModeName(a_.execution.precision));
    j.field("kernelIsa", kernelIsaName(a_.execution.kernelIsa));
    j.endObject();
    j.endObject();
    return j.str();
}

StatusOr<CompiledModel>
CompiledModel::fromJson(const std::string &text)
{
    Artifacts a;
    {
        // Scoped: the parse tree is many times the size of the graph it
        // describes, and the stages below need only the graph.
        auto doc = parseJson(text);
        if (!doc.ok())
            return doc.status();

        Deser d;
        if (d.str(*doc, "format") != kFormat) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: not a " +
                                     std::string(kFormat) + " document");
        }
        const std::int64_t version =
            d.integer<std::int64_t>(*doc, "version");
        if (!d.status().ok())
            return d.status();
        if (version < kOldestReadableVersion || version > kVersion) {
            return Status::error(
                StatusCode::InvalidArgument,
                "compiled model: unsupported version " +
                    std::to_string(version) + " (this build reads versions " +
                    std::to_string(kOldestReadableVersion) + " and " +
                    std::to_string(kVersion) + ")");
        }

        a.options = readOptions(d, d.obj(*doc, "options"));
        if (!d.status().ok())
            return d.status();

        auto graph = readGraph(d.obj(*doc, "graph"));
        if (!graph.ok())
            return graph.status();
        a.graph = std::make_shared<const Graph>(std::move(graph).value());

        if (!(*doc)["timing"].isNull()) {
            const JsonValue &timing = d.obj(*doc, "timing");
            CompiledTiming t;
            t.avgNetDelay = d.num(timing, "avgNetDelayNs");
            t.maxNetDelay = d.num(timing, "maxNetDelayNs");
            t.routed = d.flag(timing, "routed");
            t.placementHpwl = d.num(timing, "placementHpwl");
            a.timing = t;
        }

        const JsonValue &execution = d.obj(*doc, "execution");
        const std::string executor = d.str(execution, "executor");
        const std::string precision = d.str(execution, "precision");
        const std::string isa = d.str(execution, "kernelIsa");
        if (!d.status().ok())
            return d.status();
        if (!parseExecutorKind(executor, a.execution.executor) ||
            !parsePrecisionMode(precision, a.execution.precision) ||
            !parseKernelIsa(isa, a.execution.kernelIsa)) {
            return Status::error(
                StatusCode::InvalidArgument,
                "compiled model: unknown execution config '" + executor +
                    "/" + precision + "/" + isa + "'");
        }
    }
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
