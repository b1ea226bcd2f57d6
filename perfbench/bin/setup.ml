(* The publisher's side, run before any query: generate the network,
   build each scheme's database, seal every page file and start the
   servers.  Every step is timed by the benchmark around the library's
   public entry points. *)

module DB = Psp_index.Database
module PF = Psp_storage.Page_file
module CM = Psp_pir.Cost_model
module Server = Psp_pir.Server
module Spans = Perfbench.Spans

let key = Psp_crypto.Sha256.digest_string "perfbench publisher key"
let cost = CM.ibm4764
let page_size = cost.CM.page_size
let scale = 1.0
let preset = Psp_netgen.Presets.Oldenburg

(* What the bench harness's tuning (tuned_hy, tuned_pi_star) selects
   for Oldenburg at scale 1: the HY threshold with the best response
   among m/10, m/4, m/2 and m (m = 26 here), and the smallest PI*
   cluster whose files fit the PIR size cap. *)
let hy_threshold = 2
let pistar_cluster = 2

type scheme = Ci | Pi | Hy | Pistar

let scheme_name = function Ci -> "ci" | Pi -> "pi" | Hy -> "hy" | Pistar -> "pistar"

type published = { scheme : scheme; db : DB.t; server : Server.t }

type t = {
  graph : Psp_graph.Graph.t;
  published : published list;
  seconds : float;
  steps : (string * float) list;  (** seconds per set-up step, in order *)
}

let build prepared graph = function
  | Ci -> DB.build_ci ~prepared ~page_size graph
  | Pi -> DB.build_pi ~prepared ~page_size graph
  | Hy -> DB.build_hy ~prepared ~threshold:hy_threshold ~page_size graph
  | Pistar -> DB.build_pi_star ~cluster:pistar_cluster ~page_size graph

let once tracer ~mode schemes =
  let steps = ref [] in
  let step name f =
    let t0 = Unix.gettimeofday () in
    let v = Spans.with_span tracer name f in
    steps := (name, Unix.gettimeofday () -. t0) :: !steps;
    v
  in
  let t0 = Unix.gettimeofday () in
  Spans.with_span tracer "setup" (fun () ->
      let graph = step "netgen.graph" (fun () -> Psp_netgen.Presets.graph ~scale preset) in
      let prepared = step "index.prepare" (fun () -> DB.prepare ~page_size graph) in
      let built =
        List.map
          (fun s -> (s, step ("index.build." ^ scheme_name s) (fun () -> build prepared graph s)))
          schemes
      in
      step "storage.seal" (fun () ->
          List.iter (fun (_, db) -> List.iter (fun f -> PF.seal f ~key) (DB.files db)) built);
      let published =
        step "pir.server_create" (fun () ->
            List.map
              (fun (scheme, db) ->
                { scheme; db; server = Server.create ~mode ~cost ~key (DB.files db) })
              built)
      in
      { graph; published; seconds = Unix.gettimeofday () -. t0; steps = List.rev !steps })

let median xs = Perfbench.Tail.percentile (Array.of_list xs) 0.5

(* Set up [reps] times from scratch.  After each set-up, [phase] runs
   its share of the timed loop on that set-up's servers ([until] is the
   cumulative fraction of the loop to reach), so one run times the
   machine at [reps] moments some tens of seconds apart instead of one:
   a shared machine's speed can drift by 20% over such spans.  setup_s
   and the per-step layer times are medians over the set-ups.  Returns
   the last set-up. *)
let phased tracer ~reps ~mode schemes phase =
  let timings = ref [] and last = ref None in
  for i = 1 to reps do
    (* drop the previous set-up before building the next, so the heap
       peak does not depend on when the collector gets to it *)
    last := None;
    Gc.full_major ();
    let s = once tracer ~mode schemes in
    Gc.full_major ();
    timings := (s.seconds, s.steps) :: !timings;
    phase s ~until:(float_of_int i /. float_of_int reps);
    last := Some s
  done;
  let last = Option.get !last in
  let step_median name = median (List.map (fun (_, steps) -> List.assoc name steps) !timings) in
  Report.metric "setup_s" "s" (median (List.map fst !timings));
  Report.note "setup_reps" (Psp_obs.Json.Int reps);
  let metric_name step =
    match String.split_on_char '.' step with
    | [ "index"; "build"; scheme ] -> "index.build_s." ^ scheme
    | _ -> step ^ "_s"
  in
  List.iter
    (fun (name, _) -> Report.metric (metric_name name) "s" (step_median name))
    last.steps;
  let total_build =
    List.fold_left
      (fun acc s -> acc +. step_median ("index.build." ^ scheme_name s))
      0.0 schemes
  in
  Report.metric "index.build_s" "s" total_build;
  let pages = ref 0 and bytes = ref 0 in
  List.iter
    (fun p ->
      let n = List.fold_left (fun acc f -> acc + PF.page_count f) 0 (DB.files p.db) in
      pages := !pages + n;
      bytes := !bytes + DB.total_bytes p.db;
      Report.metric ("index.pages." ^ scheme_name p.scheme) "count" (float_of_int n))
    last.published;
  Report.metric "index.pages" "count" (float_of_int !pages);
  Report.metric "db_mb" "MB" (float_of_int !bytes /. 1e6);
  last
