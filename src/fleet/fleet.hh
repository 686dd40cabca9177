/**
 * @file
 * Fleet controller: N serving pods behind one deterministic router.
 *
 * The fleet owns a set of InferenceServer instances ("pods"), routes
 * each arriving request to the pod whose admission controller proves
 * the earliest completion (ties to the lowest pod id), and *sheds* a
 * request outright — zero chip cycles spent — when every routable
 * pod's provably-earliest completion already misses the deadline.
 * This lifts the TSP's compile-time-exact cycle counts (paper Eq. 4,
 * IV.F, V.c) from per-server admission control to fleet-level load
 * shedding: the shed decision is a proof, not a heuristic timeout.
 *
 * An Autoscaler evaluated at every observation-window boundary
 * launches pods (routable after a provisioning delay) and drains
 * them (no new traffic; Drained once the booked backlog has passed).
 * All routing, shedding and scaling inputs are virtual-time
 * quantities, and every server runs each batch on the worker its
 * booking chose, so a whole soak run — including which request
 * absorbs which injected fault — replays identically for a given
 * seed.
 *
 * Threading: submit()/advanceTo() must be called from one thread
 * (the load generator); pod worker threads run concurrently and
 * report through the shared SoakTimeSeries.
 */

#ifndef TSP_FLEET_FLEET_HH
#define TSP_FLEET_FLEET_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fleet/autoscaler.hh"
#include "fleet/timeseries.hh"
#include "serve/backend.hh"
#include "serve/server.hh"

namespace tsp::fleet {

/** Builds one worker engine for pod @p pod (fault seeds should be
 * derived per (pod, worker) — see common/seed.hh). */
using PodBackendFactory =
    std::function<std::unique_ptr<serve::Backend>(int pod,
                                                  int worker)>;

/** Fleet-level configuration. */
struct FleetConfig
{
    /** Pods running before the first request (>= 1). */
    int initialPods = 2;

    /**
     * Per-pod server template. onResult is chained to the fleet's
     * time series; everything else applies as given.
     */
    serve::ServerConfig server{};

    /** Exact cycles(b) table every pod books against (single-model
     * fleets; ignored when @ref models is non-empty). */
    std::vector<Cycle> cyclesByBatch;

    /**
     * Model families (non-empty ⇒ every pod serves its own
     * ModelRegistry built from these specs, requests route by model
     * id via submitModel(), and swap costs are booked exactly). When
     * makeBackend is also set, its backends must support
     * bindProgram(); when it is null, pods build SessionBackends
     * from the registry directly.
     */
    std::vector<serve::ModelSpec> models;

    /** Per-pod registry byte budget (multi-model fleets only). */
    std::size_t registryBytes = serve::ModelRegistry::kDefaultBudget;

    /** Engine factory (called workers times per pod). */
    PodBackendFactory makeBackend;

    /** Scaling policy. */
    AutoscalerConfig autoscaler{};

    /** Observation-window width, virtual seconds. */
    double windowSec = 1.0;
};

/** Pod lifecycle (see DESIGN.md fleet section for the diagram). */
enum class PodState : std::uint8_t {
    Provisioning, ///< Launched; routable at readyAtSec.
    Active,       ///< Routable.
    Draining,     ///< No new traffic; booked work completing.
    Drained,      ///< Backlog fully executed; server shut down.
};

/** One pod's control block. */
struct PodInfo
{
    int id = 0;
    PodState state = PodState::Active;
    double readyAtSec = 0.0; ///< Provisioning -> Active time.
};

/** The fleet controller. */
class Fleet
{
  public:
    /** @param ts shared time series (outlives the fleet). */
    Fleet(FleetConfig cfg, SoakTimeSeries &ts);

    /** Drains every pod. */
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /**
     * Crosses any window boundaries in (lastAdvance, now_sec],
     * evaluating the autoscaler at each: launches/drains pods and
     * retires Draining pods whose booked backlog has passed. Call
     * with each arrival stamp before submitting it.
     */
    void advanceTo(double now_sec);

    /**
     * Routes one request to the earliest-completion routable pod, or
     * sheds it (recorded, zero cycles) when the deadline provably
     * cannot be met anywhere. deadline_sec <= 0 never sheds.
     */
    void submit(std::vector<std::int8_t> input, double arrival_sec,
                double deadline_sec);

    /**
     * Model-aware routing: routes one request of family @p model
     * (tenant class @p slo_class) to the routable pod whose
     * admission state proves the earliest completion *for that
     * model* — weight-swap cost included, so a pod already staging
     * the family wins over an otherwise-idle pod that would have to
     * swap — or sheds it when every pod provably misses the
     * deadline. submit() is exactly submitModel(0, 0, ...).
     */
    void submitModel(int model, int slo_class,
                     std::vector<std::int8_t> input,
                     double arrival_sec, double deadline_sec);

    /** Flushes open batches and blocks until every pod is idle. */
    void drainAll();

    /** @return routable (Active) pods. */
    int activePods() const;

    /** @return pods launched over the fleet's lifetime. */
    int podsLaunched() const { return static_cast<int>(pods_.size()); }

    /** @return pods currently Draining or Drained. */
    int podsRetired() const;

    /** @return sum of every pod's booked backlog at @p now_sec. */
    double totalBacklogSec(double now_sec) const;

    /** @return pod @p i's control block (tests). */
    const PodInfo &podInfo(int i) const { return pods_[static_cast<std::size_t>(i)].info; }

    /** @return pod @p i's server (tests). */
    const serve::InferenceServer &podServer(int i) const
    {
        return *pods_[static_cast<std::size_t>(i)].server;
    }

    /** @return requests shed at the fleet level. */
    std::uint64_t shedCount() const { return shed_; }

  private:
    struct Pod
    {
        PodInfo info;
        /** Per-pod compiled-model registry (multi-model fleets);
         * declared before the server so it outlives it. */
        std::unique_ptr<serve::ModelRegistry> registry;
        std::unique_ptr<serve::InferenceServer> server;
    };

    void launchPod(double now_sec);
    void evaluateWindow(std::size_t window, double boundary_sec);

    FleetConfig cfg_;
    SoakTimeSeries &ts_;
    Autoscaler scaler_;
    std::vector<Pod> pods_;
    std::size_t nextWindow_ = 0; ///< First unevaluated window.
    std::uint64_t shed_ = 0;
    /** Per-window submit/shed counts kept on the submit thread: the
     * autoscaler's shed-fraction signal must not depend on how far
     * the worker threads happen to have caught up at a boundary. */
    std::vector<std::uint64_t> winSubmitted_;
    std::vector<std::uint64_t> winShed_;
};

} // namespace tsp::fleet

#endif // TSP_FLEET_FLEET_HH
