(* The three workloads.  Each is a [phase] that runs part of the timed
   loop on one set-up's servers (Setup.phased calls it after each
   set-up) and a [finish] that reports the metrics.  Every answer is
   checked outside the timed region.  A traced run records spans on
   half of the requests (see [traced]), so the untraced requests of the
   same run give the tracing overhead, and then runs the layer probes. *)

module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module Server = Psp_pir.Server
module Client = Psp_core.Client
module Response_time = Psp_core.Response_time
module Scheduler = Psp_serve.Scheduler
module Queue = Psp_serve.Queue
module Workload = Psp_netgen.Workload
module Obs = Psp_obs.Obs
module Json = Psp_obs.Json
module Spans = Perfbench.Spans
module Tail = Perfbench.Tail

type ctx = { seed : int; seconds : float; trace : bool; tracer : Spans.t }

let now = Unix.gettimeofday
let setup_reps = 3
let tail_p = 0.9

(* Queries drawn per stream: far more than any run completes. *)
let stream_queries = 20_000

(* Independent seeds for the several streams one run draws. *)
let derive seed k = (seed * 7919) + k

(* Whether a traced run records spans on a unit of the loop: a round,
   or a burst cycle on serve-burst, so both groups serve the same burst
   sizes.  Of each consecutive pair of units, one is traced, picked by a
   hash of the seed and the pair.  Plain alternation lined up with the
   Pyramid stores' periodic rebuilds, so one group drew more of them and
   came out up to 20% faster. *)
let traced ctx unit = ctx.trace && (Hashtbl.hash (ctx.seed, unit / 2) + unit) land 1 = 0

(* ------------------------------------------------------------------ *)
(* One call into the client, timed from outside.  The pacing hooks mark
   where the server phase ends (on_release) and report the modeled
   server seconds and the plan's decode volume. *)

type call = {
  seconds : float;
  server_phase : float;
  client_tail : float;
  decode_bytes : int;
  model_server : float;
  alloc : float;
  width : int;
}

let client_call tracer ~name server graph pairs =
  let release = ref nan and decode = ref 0 and model = ref 0.0 in
  let pacing =
    { Psp_core.Engine.on_server = (fun ~seconds -> model := seconds);
      on_decode = (fun ~bytes -> decode := bytes);
      on_release = (fun () -> release := now ()) }
  in
  Spans.with_span tracer name (fun () ->
      let a0 = Gc.allocated_bytes () in
      let t0 = now () in
      let results = Client.query_nodes_batch ~pacing server graph pairs in
      let t1 = now () in
      let alloc = Gc.allocated_bytes () -. a0 in
      let release = if Float.is_nan !release then t1 else !release in
      Spans.add tracer ~name:"core.server_phase" ~start:t0 ~stop:release;
      Spans.add tracer ~name:"core.client_tail" ~start:release ~stop:t1;
      ( results,
        { seconds = t1 -. t0;
        server_phase = release -. t0;
        client_tail = t1 -. release;
        decode_bytes = !decode;
        model_server = !model;
          alloc;
          width = Array.length pairs } ))

(* ------------------------------------------------------------------ *)
(* What a query loop accumulates. *)

type tally = {
  mutable latencies_ms : float list;  (** per query, real *)
  mutable model_s : float list;  (** per query, modeled response *)
  mutable queries : int;
  mutable timed : float;  (** seconds inside timed calls *)
  mutable alloc : float;
  mutable traced : int * float;  (** requests, timed seconds *)
  mutable untraced : int * float;
  mutable oracle : float;
  mutable calls : call list;  (** client calls the benchmark made *)
  mutable traced_calls : call list;
  mutable touches : int;
  mutable scans : int;
  accesses : (string * string, int) Hashtbl.t;  (** (scheme, file) -> fetches *)
}

let tally () =
  { latencies_ms = [];
    model_s = [];
    queries = 0;
    timed = 0.0;
    alloc = 0.0;
    traced = (0, 0.0);
    untraced = (0, 0.0);
    oracle = 0.0;
    calls = [];
    traced_calls = [];
    touches = 0;
    scans = 0;
    accesses = Hashtbl.create 8 }

let count_request t ~traced ~queries ~seconds =
  let n, s = if traced then t.traced else t.untraced in
  let v = (n + queries, s +. seconds) in
  if traced then t.traced <- v else t.untraced <- v

let count_accesses t scheme (r : Client.result) =
  List.iter
    (fun (file, n) ->
      let k = (scheme, file) in
      Hashtbl.replace t.accesses k (n + Option.value ~default:0 (Hashtbl.find_opt t.accesses k)))
    r.Client.stats.Server.Session.pir_fetches

let oracle ctx t graph s d =
  let t0 = now () in
  let truth =
    Spans.with_span ctx.tracer "graph.oracle" (fun () -> Psp_graph.Dijkstra.distance graph s d)
  in
  t.oracle <- t.oracle +. (now () -. t0);
  truth

let store_counters (published : Setup.published list) =
  List.fold_left
    (fun (touches, scans) (p : Setup.published) ->
      ( touches + Server.executed_slot_touches p.server,
        scans + Server.executed_level_scans p.server ))
    (0, 0) published

let percentile xs p = Tail.percentile (Array.of_list xs) p
let mean_of f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Metrics every workload reports.  [sample] names what one latency
   sample is. *)

let report_end_to_end t ~sample =
  let n = List.length t.latencies_ms in
  Report.note "sample" (Json.String sample);
  Report.note "samples" (Json.Int n);
  Report.note "tail_percentile" (Json.Float tail_p);
  Report.note "samples_beyond_tail" (Json.Int (Tail.beyond ~n tail_p));
  Report.note "tail_rule_met" (Json.Bool (Tail.tail_ok ~n tail_p));
  Report.note "model_samples" (Json.Int (List.length t.model_s));
  let q = float_of_int t.queries in
  Report.metric "query_p50_ms" "ms" (percentile t.latencies_ms 0.5);
  Report.metric "query_p90_ms" "ms" (percentile t.latencies_ms tail_p);
  Report.metric "qps" "1/s" (q /. t.timed);
  Report.metric "alloc_mb_per_query" "MB" (t.alloc /. q /. 1e6);
  Report.metric "model_p50_s" "s" (percentile t.model_s 0.5);
  Report.metric "model_p90_s" "s" (percentile t.model_s tail_p);
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  Report.metric "heap_peak_mb" "MB" (float_of_int (words * (Sys.word_size / 8)) /. 1e6);
  Report.metric "error_rate" "ratio"
    (float_of_int !Report.failed /. float_of_int (max 1 !Report.attempted));
  Report.metric "graph.oracle_ms" "ms" (t.oracle /. q *. 1e3);
  Report.metric "pir.slot_touches_per_query" "count" (float_of_int t.touches /. q);
  Report.metric "pir.level_scans_per_query" "count" (float_of_int t.scans /. q)

(* Server phase and client tail per client call, from the pacing
   hooks. *)
let report_core calls =
  let server = mean_of (fun c -> c.server_phase) calls in
  let tail = mean_of (fun c -> c.client_tail) calls in
  let members = List.fold_left (fun acc c -> acc + c.width) 0 calls in
  let decode = List.fold_left (fun acc c -> acc + c.decode_bytes) 0 calls in
  Report.metric "core.server_phase_ms" "ms" (server *. 1e3);
  Report.metric "core.client_tail_ms" "ms" (tail *. 1e3);
  Report.metric "core.decode_mb_per_query" "MB"
    (float_of_int decode /. float_of_int members /. 1e6);
  Report.metric "core.server_share" "ratio" (server /. (server +. tail));
  Report.note "core.server_share_base_ms" (Json.Float ((server +. tail) *. 1e3));
  Report.note "core.calls" (Json.Int (List.length calls))

let report_trace_overhead t =
  let n1, s1 = t.traced and n0, s0 = t.untraced in
  Report.note "traced_requests" (Json.Int n1);
  Report.note "untraced_requests" (Json.Int n0);
  Report.metric "bench.trace_overhead" "ratio"
    (float_of_int n1 /. s1 /. (float_of_int n0 /. s0))

(* Probes over the workload's own files: the store probe uses the
   largest published file with as many reads as the run made of it
   (clamped to [64, 512]). *)
let run_probes ctx t (setup : Setup.t) =
  Spans.set_enabled ctx.tracer true;
  Spans.with_span ctx.tracer "probes" @@ fun () ->
  Probes.crypto ctx.tracer;
  let largest =
    List.fold_left
      (fun best (p : Setup.published) ->
        List.fold_left
          (fun best f ->
            match best with
            | Some (_, bf) when PF.page_count bf >= PF.page_count f -> best
            | _ -> Some (p, f))
          best (DB.files p.db))
      None setup.published
  in
  let p, file = Option.get largest in
  let reads =
    Option.value ~default:0
      (Hashtbl.find_opt t.accesses (Setup.scheme_name p.scheme, PF.name file))
  in
  Probes.store ctx.tracer file ~accesses:(16 * (max 64 (min 512 reads) / 16));
  let ci = List.find (fun (q : Setup.published) -> q.scheme = Setup.Ci) setup.published in
  Probes.decode ctx.tracer ci.db.DB.data;
  Probes.authenticate ctx.tracer file

(* ------------------------------------------------------------------ *)
(* seq-pyramid and publish-sim: a closed loop of width-1 client calls in
   rounds of one query per published database (a single query on
   seq-pyramid).  One latency sample is the mean call time of a round:
   on publish-sim the four schemes' costs differ by up to 5x, and
   per-call percentiles would sit on the boundary between two schemes
   and jump between them from run to run.  The loop stops only at a
   round's end, and tracing picks whole rounds so every scheme is
   traced. *)

let closed_loop ctx ~pyramid =
  let t = tally () in
  let min_rounds = float_of_int (Tail.min_samples tail_p) in
  let rounds = ref 0 and pairs = ref [||] in
  let phase (setup : Setup.t) ~until =
    let dbs = Array.of_list setup.published in
    let graph = setup.graph in
    if !rounds = 0 then
      pairs := Psp_netgen.Synthetic.random_queries graph ~count:stream_queries ~seed:ctx.seed;
    let pairs = !pairs in
    let touches0, scans0 = store_counters setup.published in
    while
      (t.timed < ctx.seconds *. until || float_of_int !rounds < min_rounds *. until)
      && t.queries + Array.length dbs <= stream_queries
    do
      let traced = traced ctx !rounds in
      Spans.set_enabled ctx.tracer traced;
      let round_s = ref 0.0 and round_model = ref 0.0 and answered = ref 0 in
      Array.iter
        (fun (p : Setup.published) ->
          let i = t.queries in
          let scheme = Setup.scheme_name p.scheme in
          let s, d = pairs.(i) in
          let label = Printf.sprintf "%s query %d (%d -> %d)" scheme i s d in
          incr Report.attempted;
          t.queries <- i + 1;
          Spans.with_span ctx.tracer "request" (fun () ->
              let touches_before = Server.executed_slot_touches p.server in
              match
                client_call ctx.tracer ~name:("client.query." ^ scheme) p.server graph [| (s, d) |]
              with
              | exception e -> Report.query_failed (label ^ ": raised " ^ Printexc.to_string e)
              | results, call ->
                  let r = results.(0) in
                  incr answered;
                  round_s := !round_s +. call.seconds;
                  round_model := !round_model +. Response_time.total (Response_time.of_result r);
                  t.timed <- t.timed +. call.seconds;
                  t.alloc <- t.alloc +. call.alloc;
                  t.calls <- call :: t.calls;
                  if traced then t.traced_calls <- call :: t.traced_calls;
                  count_request t ~traced ~queries:1 ~seconds:call.seconds;
                  count_accesses t scheme r;
                  let touched = Server.executed_slot_touches p.server - touches_before in
                  let truth = oracle ctx t graph s d in
                  Spans.with_span ctx.tracer "check" (fun () ->
                      let checks =
                        [ (fun () -> Checks.answer ~truth r); (fun () -> Checks.plan p.db r) ]
                        @
                        if pyramid then
                          [ (fun () ->
                              Checks.touches ~got:touched
                                ~want:(Checks.expected_touches p.server r ~width:1)) ]
                        else []
                      in
                      match Checks.first_error checks with
                      | Ok () -> ()
                      | Error e -> Report.query_failed (label ^ ": " ^ e))))
        dbs;
      incr rounds;
      if !answered > 0 then begin
        let n = float_of_int !answered in
        t.latencies_ms <- (!round_s /. n *. 1e3) :: t.latencies_ms;
        t.model_s <- (!round_model /. n) :: t.model_s
      end
    done;
    Spans.set_enabled ctx.tracer ctx.trace;
    let touches1, scans1 = store_counters setup.published in
    t.touches <- t.touches + touches1 - touches0;
    t.scans <- t.scans + scans1 - scans0
  in
  let finish (setup : Setup.t) =
    Report.note "queries_per_sample" (Json.Int (List.length setup.published));
    report_end_to_end t ~sample:"mean client call time of one round";
    (* the loop runs until the rule holds, so a miss is a benchmark bug *)
    let n = List.length t.latencies_ms in
    if not (Tail.tail_ok ~n tail_p) then
      Report.invariant_broken
        (Printf.sprintf "%d samples leave fewer than %d beyond p%.0f" n Tail.min_beyond
           (100.0 *. tail_p));
    Report.metric "pir.model_server_s" "model_s"
      (mean_of (fun c -> c.model_server /. float_of_int c.width) t.calls);
    Report.metric "serve.mean_width" "count" 1.0;
    if ctx.trace then begin
      report_core t.traced_calls;
      report_trace_overhead t;
      run_probes ctx t setup
    end
  in
  (phase, finish)

(* ------------------------------------------------------------------ *)
(* serve-burst: the multi-tenant frontend over a CI and a PI tenant,
   each receiving bursts every 400 s of mean size 6 on the scheduler's
   virtual clock.  All of a burst's jobs arrive at the same instant, and
   a burst drains long before the next arrives, so the stream is served
   one Scheduler.run per burst: that is what lets the benchmark time
   each burst, stop after the requested seconds and carry the stream on
   across set-ups.  The benchmark cannot see when each batch finishes
   inside Scheduler.run, so its real latency sample is the burst's: the
   time the burst takes to drain, which is the real latency of its last
   job, since all of its jobs arrive together and run back to back.  A
   run serves only 12 to 21 bursts, so query_p90_ms here rests on that
   many timings and does not meet the tail rule; the modeled latencies
   are per job.  After the loop, one Scheduler.run over the whole served
   stream in `Simulated mode must give every job the same modeled
   latency and width, which proves both that splitting changed no
   decision and that the two modes agree. *)

let burst_bounds arrivals =
  let out = ref [] and lo = ref 0 in
  Array.iteri
    (fun i a ->
      if i + 1 = Array.length arrivals || arrivals.(i + 1) <> a then begin
        out := (!lo, i + 1) :: !out;
        lo := i + 1
      end)
    arrivals;
  Array.of_list (List.rev !out)

let burst_period = 400.0
let bursts = Workload.Bursts { period = burst_period; mean_size = 6 }
let cycle_bursts = 3

(* serve-burst serves a fixed cycle: the first [cycle_bursts] bursts
   each tenant gets from [bursts] under a fixed seed, repeated, with the
   query pairs drawn from the run's seed.  Burst sizes range from 1 to 11
   per tenant and a run serves only 12 to 21 bursts, so sizes drawn
   afresh per seed, or a run cut after whichever burst the clock allows,
   would move every metric by more than a perf change could be held to.
   The loop stops only at a cycle's end. *)
let cycle_sizes k =
  let a = Workload.arrivals bursts ~count:(11 * cycle_bursts) ~seed:(400 + k) in
  Array.init cycle_bursts (fun b ->
      let lo, hi = (burst_bounds a).(b) in
      hi - lo)

let cyclic_arrivals sizes ~count =
  let out = Array.make count 0.0 and filled = ref 0 and b = ref 0 in
  while !filled < count do
    let size = min sizes.(!b mod Array.length sizes) (count - !filled) in
    Array.fill out !filled size (float_of_int !b *. burst_period);
    filled := !filled + size;
    incr b
  done;
  out

type stream = {
  tenant : string;
  published : Setup.published;
  pairs : (int * int) array;
  arrivals : float array;
  bounds : (int * int) array;  (** [lo, hi) of each burst *)
}

(* One stream per published database: query pairs from the run's seed,
   arrivals from [arrivals k] for the k-th tenant. *)
let make_streams ctx (setup : Setup.t) ~count ~arrivals =
  List.mapi
    (fun k (p : Setup.published) ->
      let pairs =
        Psp_netgen.Synthetic.random_queries setup.graph ~count ~seed:(derive ctx.seed (2 * k))
      in
      let arrivals = arrivals k in
      { tenant = Setup.scheme_name p.scheme;
        published = p;
        pairs;
        arrivals;
        bounds = burst_bounds arrivals })
    setup.published

(* Jobs of streams' index ranges, [range st] giving [lo, hi). *)
let jobs_of streams range =
  Scheduler.mix
    (List.map
       (fun st ->
         let lo, hi = range st in
         (st.tenant, Array.sub st.pairs lo (hi - lo), Array.sub st.arrivals lo (hi - lo)))
       streams)

let tenants_of (setup : Setup.t) ~servers =
  List.map2
    (fun (p : Setup.published) server ->
      { Scheduler.name = Setup.scheme_name p.scheme; server; graph = setup.graph })
    setup.published servers

let simulated_servers (setup : Setup.t) =
  List.map
    (fun (p : Setup.published) ->
      Server.create ~mode:`Simulated ~cost:Setup.cost ~key:Setup.key (DB.files p.db))
    setup.published

(* The served jobs of one Scheduler.run, in submission order, with the
   touch check per tenant: each batch must execute exactly the cost
   model's basis for its width. *)
let check_burst ctx t (setup : Setup.t) streams (report : Scheduler.report) ~touched ~label =
  let batches = Hashtbl.create 8 in
  Array.iter
    (fun (s : Scheduler.served) ->
      let key = (s.Scheduler.job.Queue.tenant, s.Scheduler.dispatched) in
      if not (Hashtbl.mem batches key) then Hashtbl.replace batches key s)
    report.Scheduler.served;
  let want = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (tenant, _) (s : Scheduler.served) ->
      let st = List.find (fun st -> st.tenant = tenant) streams in
      let w =
        Checks.expected_touches st.published.server s.Scheduler.result ~width:s.Scheduler.width
      in
      Hashtbl.replace want tenant (w + Option.value ~default:0 (Hashtbl.find_opt want tenant)))
    batches;
  let touch_error =
    List.find_map
      (fun (tenant, got) ->
        let want = Option.value ~default:0 (Hashtbl.find_opt want tenant) in
        match Checks.touches ~got ~want with
        | Ok () -> None
        | Error e -> Some (tenant ^ ": " ^ e))
      touched
  in
  Array.iter
    (fun (s : Scheduler.served) ->
      let j = s.Scheduler.job in
      let st = List.find (fun st -> st.tenant = j.Queue.tenant) streams in
      count_accesses t st.tenant s.Scheduler.result;
      let truth = oracle ctx t setup.graph j.Queue.src j.Queue.dst in
      Spans.with_span ctx.tracer "check" (fun () ->
          let checks =
            [ (fun () -> Checks.answer ~truth s.Scheduler.result);
              (fun () -> Checks.plan st.published.db s.Scheduler.result);
              (fun () -> match touch_error with None -> Ok () | Some e -> Error e) ]
          in
          match Checks.first_error checks with
          | Ok () -> ()
          | Error e ->
              Report.query_failed
                (Printf.sprintf "%s, %s job (%d -> %d): %s" label j.Queue.tenant j.Queue.src
                   j.Queue.dst e)))
    report.Scheduler.served

(* What the end-of-run metrics and schedule check need from a served
   job.  The Client.result (path, trace) is dropped once checked, so the
   heap does not grow with the number of jobs a run serves. *)
type kept = { job : Queue.job; latency : float; width : int; queue_s : float; server_s : float }

let keep (s : Scheduler.served) =
  let r = s.Scheduler.response in
  { job = s.Scheduler.job;
    latency = s.Scheduler.latency;
    width = s.Scheduler.width;
    queue_s = r.Response_time.queue_seconds;
    server_s =
      r.Response_time.pir_seconds +. r.Response_time.comm_seconds
      +. r.Response_time.server_cpu_seconds }

let same_schedule (a : Scheduler.served) (b : kept) =
  a.Scheduler.job.Queue.tenant = b.job.Queue.tenant
  && a.Scheduler.job.Queue.src = b.job.Queue.src
  && a.Scheduler.job.Queue.dst = b.job.Queue.dst
  && a.Scheduler.latency = b.latency
  && a.Scheduler.width = b.width

(* model_capacity_qps: the highest rate on a fixed geometric ladder of
   Poisson arrival rates (the same CI+PI mix, split evenly) at which the
   modeled p90 latency meets the scheduler's SLO and the server is busy
   less than the whole arrival span (no growing backlog).  Simulated
   mode: the modeled schedule is the same, without the ORAM work. *)
let capacity_ladder = Array.init 49 (fun i -> 0.01 *. (2.0 ** (float_of_int i /. 4.0)))
let capacity_jobs = 50

let meets_slo ctx (setup : Setup.t) ~tenants rate =
  let process = Workload.Poisson { rate = rate /. float_of_int (List.length tenants) } in
  let streams =
    make_streams ctx setup ~count:capacity_jobs ~arrivals:(fun k ->
        Workload.arrivals process ~count:capacity_jobs ~seed:(derive ctx.seed ((2 * k) + 1)))
  in
  let jobs = jobs_of streams (fun _ -> (0, capacity_jobs)) in
  let report = Scheduler.run Scheduler.default ~tenants ~jobs in
  let latencies =
    Array.map (fun (s : Scheduler.served) -> s.Scheduler.latency) report.Scheduler.served
  in
  let busy =
    List.fold_left (fun acc (b : Scheduler.batch_record) -> acc +. b.Scheduler.b_service) 0.0
      report.Scheduler.batches
  in
  let span = Array.fold_left (fun acc (j : Queue.job) -> Float.max acc j.Queue.arrival) 0.0 jobs in
  Tail.percentile latencies tail_p <= Scheduler.default.Scheduler.slo && busy < span

let model_capacity ctx setup ~tenants =
  (* binary search for the last passing rung; the pass/fail boundary is
     monotone in the rate *)
  let rec search lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if meets_slo ctx setup ~tenants capacity_ladder.(mid) then search mid hi else search lo mid
  in
  let best = search (-1) (Array.length capacity_ladder) in
  if best < 0 then 0.0 else capacity_ladder.(best)

let serve_burst ctx =
  let t = tally () in
  (* enough jobs for the tail rule on the per-job modeled latencies *)
  let min_jobs = float_of_int (Tail.min_samples tail_p) in
  let served = ref [] and batches = ref [] and burst = ref 0 in
  let streams_of setup =
    make_streams ctx setup ~count:stream_queries ~arrivals:(fun k ->
        cyclic_arrivals (cycle_sizes k) ~count:stream_queries)
  in
  let available streams =
    List.fold_left (fun acc st -> min acc (Array.length st.bounds)) max_int streams
  in
  let phase (setup : Setup.t) ~until =
    let streams = streams_of setup in
    let tenants =
      tenants_of setup ~servers:(List.map (fun (p : Setup.published) -> p.server) setup.published)
    in
    let available = available streams in
    let touches0, scans0 = store_counters setup.published in
    if !burst = 0 then Obs.reset ();
    while
      (t.timed < ctx.seconds *. until
      || float_of_int t.queries < min_jobs *. until
      || !burst mod cycle_bursts <> 0)
      && !burst < available
    do
      let b = !burst in
      let jobs = jobs_of streams (fun st -> st.bounds.(b)) in
      let n = Array.length jobs in
      let traced = traced ctx (b / cycle_bursts) in
      Spans.set_enabled ctx.tracer traced;
      Report.attempted := !Report.attempted + n;
      t.queries <- t.queries + n;
      incr burst;
      let label = Printf.sprintf "burst %d" b in
      Spans.with_span ctx.tracer "request" (fun () ->
          let before =
            List.map (fun st -> Server.executed_slot_touches st.published.server) streams
          in
          let a0 = Gc.allocated_bytes () in
          let t0 = now () in
          match
            Spans.with_span ctx.tracer "serve.run" (fun () ->
                Scheduler.run Scheduler.default ~tenants ~jobs)
          with
          | exception e ->
              Report.failed := !Report.failed + n;
              Report.complain (label ^ ": raised " ^ Printexc.to_string e)
          | report ->
              let dt = now () -. t0 in
              t.alloc <- t.alloc +. (Gc.allocated_bytes () -. a0);
              t.timed <- t.timed +. dt;
              count_request t ~traced ~queries:n ~seconds:dt;
              t.latencies_ms <- (dt *. 1e3) :: t.latencies_ms;
              Array.iter
                (fun (s : Scheduler.served) ->
                  t.model_s <-
                    (s.Scheduler.latency +. s.Scheduler.result.Client.client_seconds) :: t.model_s)
                report.Scheduler.served;
              served := Array.map keep report.Scheduler.served :: !served;
              batches := report.Scheduler.batches @ !batches;
              let touched =
                List.map2
                  (fun st before ->
                    (st.tenant, Server.executed_slot_touches st.published.server - before))
                  streams before
              in
              check_burst ctx t setup streams report ~touched ~label)
    done;
    Spans.set_enabled ctx.tracer ctx.trace;
    let touches1, scans1 = store_counters setup.published in
    t.touches <- t.touches + touches1 - touches0;
    t.scans <- t.scans + scans1 - scans0
  in
  let finish (setup : Setup.t) =
    let streams = streams_of setup in
    let available = available streams in
    let peaks =
      List.map
        (fun st ->
          (st.tenant, Obs.get (Obs.gauge (Printf.sprintf "serve.%s.queue.peak" st.tenant))))
        streams
    in
    report_end_to_end t ~sample:"real drain time of one burst";
    let served = Array.concat (List.rev !served) in
    Report.note "bursts" (Json.Int !burst);
    Report.note "serve.batches" (Json.Int (List.length !batches));
    List.iteri
      (fun k st ->
        Report.note ("burst_cycle." ^ st.tenant)
          (Json.List (Array.to_list (Array.map (fun n -> Json.Int n) (cycle_sizes k)))))
      streams;
    Report.metric "serve.run_s" "s" t.timed;
    Report.metric "serve.mean_width" "count"
      (float_of_int (Array.length served) /. float_of_int (List.length !batches));
    Report.metric "serve.queue_wait_p90_s" "model_s"
      (Tail.percentile
         (Array.map (fun k -> k.queue_s) served)
         tail_p);
    List.iter
      (fun (tenant, peak) -> Report.metric ("serve.queue_peak." ^ tenant) "count" peak)
      peaks;
    Report.metric "pir.model_server_s" "model_s"
      (mean_of (fun k -> k.server_s) (Array.to_list served));
    (* Simulated vs Pyramid, and split vs whole *)
    let sim_tenants = tenants_of setup ~servers:(simulated_servers setup) in
    let whole =
      Scheduler.run Scheduler.default ~tenants:sim_tenants
        ~jobs:(jobs_of streams (fun st -> (0, snd st.bounds.(!burst - 1))))
    in
    let whole = whole.Scheduler.served in
    (if Array.length whole <> Array.length served then
       Report.invariant_broken "Simulated run served a different number of jobs"
     else
       match
         List.find_opt
           (fun i -> not (same_schedule whole.(i) served.(i)))
           (List.init (Array.length served) Fun.id)
       with
    | Some i ->
        Report.invariant_broken
          (Printf.sprintf
             "job %d: Simulated latency %.17g width %d, Pyramid latency %.17g width %d" i
             whole.(i).Scheduler.latency whole.(i).Scheduler.width served.(i).latency
             served.(i).width)
    | None -> ());
    if ctx.trace then begin
      (* modeled and deterministic, so tracing cannot disturb it; the
         traced run computes it to keep the timed runs short *)
      Report.metric "model_capacity_qps" "1/s" (model_capacity ctx setup ~tenants:sim_tenants);
      (* one width-6 batch per tenant (the mean burst size) through the
         pacing hooks, for the server-phase / client-tail split *)
      let probe_calls =
        List.map
          (fun st ->
            let lo = snd st.bounds.(available - 1) - 6 in
            let pairs = Array.sub st.pairs lo 6 in
            let results, call =
              Spans.with_span ctx.tracer "request" (fun () ->
                  client_call ctx.tracer ~name:("client.batch." ^ st.tenant) st.published.server
                    setup.graph pairs)
            in
            Array.iteri
              (fun k r ->
                let s, d = pairs.(k) in
                incr Report.attempted;
                let truth = Psp_graph.Dijkstra.distance setup.graph s d in
                let checks =
                  [ (fun () -> Checks.answer ~truth r);
                    (fun () -> Checks.plan st.published.db r) ]
                in
                match Checks.first_error checks with
                | Ok () -> ()
                | Error e ->
                    Report.query_failed
                      (Printf.sprintf "%s probe batch (%d -> %d): %s" st.tenant s d e))
              results;
            call)
          streams
      in
      report_core probe_calls;
      report_trace_overhead t;
      run_probes ctx t setup
    end
  in
  (phase, finish)
