(** Cross-plan scheduler with adaptive batch width — the multi-tenant
    serving frontend.

    One simulated SCP serves several published databases ("tenants":
    e.g. a CI plan next to a PI plan) from a mixed query stream.  The
    scheduler keeps a per-tenant FIFO ({!Queue}), and whenever the
    serial server is free it either dispatches a {e due} lane as one
    same-plan batch ({!Psp_core.Client.query_nodes_batch}, which merges
    the members' fetches into single oblivious-store passes) or advances
    its virtual clock to the next event.

    {b Width policy.}  An adaptive lane is work-conserving: the moment
    the server is free it ships everything the lane has queued, with the
    width clamped into [[min_width, max_width]] and shrunk while the
    cost-model service estimate says a batch that wide would push the
    lane's oldest member past [slo].  While a batch is in service new
    arrivals accumulate, so the next batch is naturally wider — the
    width tracks load with no tuning.  A fixed-width lane is the classic
    fill-or-timeout batcher it is benchmarked against: it idles until
    [w] members arrive or its head has waited the full SLO, which is
    exactly what [bench --experiment serve] shows costing it the tail.
    Every input to these decisions is public: queue depths, arrival
    instants, configuration and {!Psp_pir.Cost_model} estimates.  The
    decision functions carry [[\@\@oblivious]] so psplint audits that
    they stay that way.

    {b What load leaks.}  Arrival times, batch widths and which tenant
    each batch serves are visible to the LBS by definition — it serves
    the requests.  Per Theorem 1 it learns nothing {e more}: each
    member's trace stays byte-identical to a sequential run of the same
    plan, whatever the mix (test/test_serve.ml asserts this under a
    32-seed fault sweep). *)

type policy =
  | Adaptive
      (** work-conserving; width = clamp(min, max, depth), shrunk to
          keep the head's estimated latency inside the SLO *)
  | Fixed of int
      (** fill-or-timeout at width [w]: dispatch at depth ≥ w or when
          the head has waited the SLO; the comparison baseline
          benchmarked by [bench --experiment serve] *)
  | Pipelined of { width : int; depth : int }
      (** fill-or-timeout at [width] like {!Fixed}, but batches execute
          through the {!Psp_async.Pipeline} effects executor with up to
          [depth] batches in flight: batch [i]'s PIR pass overlaps
          earlier batches' client-side decode tails.  Batch composition
          is decided on a {e formation} clock that advances by fetch +
          modeled decode per batch regardless of [depth], so every
          member's trace and the server's fetch sequence are
          byte-identical across depths; only reported completion
          instants change (test/test_pipeline.ml asserts this against
          the [depth = 1] run).

          [depth = 1] runs batches back to back without overlap, but it
          is {e not} the {!Fixed} schedule: {!Fixed} and {!Adaptive}
          advance their clock by server service only, while the
          formation clock also charges modeled decode.  The same stream
          can therefore form batches at different instants and finish
          later — 16 CI jobs in bursts of 4 every 2 s on a 150-node
          network: last-job latency 12.033 s under [Fixed 4], 12.381 s
          under [Pipelined {width = 4; depth = 1}].  Benchmarked by
          [bench --experiment pipeline]. *)

type config = {
  min_width : int;
  max_width : int;
  slo : float;  (** target end-to-end latency bound, model seconds *)
  policy : policy;
}

val default : config
(** width 1–16, 60 s SLO, adaptive. *)

type tenant = {
  name : string;  (** the public tenant key, e.g. ["ci"] *)
  server : Psp_pir.Server.t;
  graph : Psp_graph.Graph.t;  (** for node-id endpoint resolution *)
}

type served = {
  job : Queue.job;
  result : Psp_core.Client.result;
  response : Psp_core.Response_time.t;
      (** the member's own cost share with [queue_seconds] set to its
          dispatch wait (and, under {!Pipelined}, [decode_seconds] set
          to its share of the batch's modeled decode) *)
  latency : float;
      (** completion minus arrival on the virtual clock: queueing wait
          plus the whole batch's service (members complete together);
          under {!Pipelined} the completion instant comes from the
          execution timeline, so overlap shortens it *)
  width : int;  (** width of the batch that served it *)
  dispatched : float;
  completed : float;
}

type batch_record = {
  b_tenant : string;
  b_width : int;
  b_dispatched : float;
  b_service : float;
}

type report = {
  served : served array;  (** indexed by submission index *)
  batches : batch_record list;  (** chronological *)
  makespan : float;  (** virtual-clock instant the last batch finished *)
}

val mix : (string * (int * int) array * float array) list -> Queue.job array
(** Interleave per-tenant workloads ([tenant, query pairs, arrivals])
    into one submission-indexed stream ordered by arrival time.
    @raise Invalid_argument when a stream's pair and arrival counts
    differ. *)

val run :
  ?pad:bool ->
  ?retry:Psp_core.Client.retry_policy ->
  config ->
  tenants:tenant list ->
  jobs:Queue.job array ->
  report
(** Serve the stream to completion.  Per-tenant gauges
    ([serve.<name>.queue.peak], [serve.<name>.width.last]), counters
    ([serve.<name>.batches]) and histograms ([serve.<name>.width],
    [serve.<name>.latency]) are recorded through {!Psp_obs.Obs} under
    the constant-shape policy — all derived from the public schedule.
    [pad]/[retry] pass through to {!Psp_core.Client.query_nodes_batch}.
    @raise Invalid_argument on an invalid config, an unknown or
    duplicate tenant, or job indices that are not dense and unique. *)
