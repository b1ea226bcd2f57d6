(* perfbench: the measured benchmark of psp.  Run through
   perfbench/run.py, which builds this program and turns its RESULT line
   into the benchmark's result; see perfbench/METRICS.md for every
   metric, the layer it belongs to and the workload it should move.

   main.exe --workload <seq-pyramid|serve-burst|publish-sim> --seed N
            --seconds S --trace <0|1>

   A traced run writes its spans to <workload>-seed<N>-trace1-spans.json
   in the working directory. *)

module Json = Psp_obs.Json
module Spans = Perfbench.Spans

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "seq-pyramid | serve-burst | publish-sim");
      ("--seed", Arg.Set_int seed, "seed of the generated queries and arrivals");
      ("--seconds", Arg.Set_float seconds, "timed seconds of the query loop");
      ("--trace", Arg.Set_int trace, "1 records spans and runs the layer probes") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let mode, schemes, run =
    match !workload with
    | "seq-pyramid" -> (`Pyramid, [ Setup.Ci ], fun ctx -> Workloads.closed_loop ctx ~pyramid:true)
    | "serve-burst" -> (`Pyramid, [ Setup.Ci; Setup.Pi ], Workloads.serve_burst)
    | "publish-sim" ->
        ( `Simulated,
          [ Setup.Ci; Setup.Pi; Setup.Hy; Setup.Pistar ],
          fun ctx -> Workloads.closed_loop ctx ~pyramid:false )
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let trace = !trace = 1 in
  let tracer = Spans.create ~enabled:trace () in
  let ctx = { Workloads.seed = !seed; seconds = !seconds; trace; tracer } in
  Printf.printf "perfbench %s, seed %d, %.0f s, trace %b\n%!" !workload !seed !seconds trace;
  List.iter
    (fun (k, v) -> Report.note k v)
    [ ("workload", Json.String !workload);
      ("seed", Json.Int !seed);
      ("seconds", Json.Float !seconds);
      ("trace", Json.Bool trace);
      ("network", Json.String (Psp_netgen.Presets.full_name Setup.preset));
      ("scale", Json.Float Setup.scale);
      ("nodes", Json.Int (Psp_netgen.Presets.paper_nodes Setup.preset));
      ("hy_threshold", Json.Int Setup.hy_threshold);
      ("pistar_cluster", Json.Int Setup.pistar_cluster) ];
  let phase, finish = run ctx in
  finish (Setup.phased tracer ~reps:Workloads.setup_reps ~mode schemes phase);
  if trace then begin
    let spans = Spans.spans tracer in
    Report.layers := Spans.layer_self_times ~root_label:"unattributed" spans;
    let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 !Report.layers in
    print_endline "self time per layer (traced requests, set-up and probes):";
    List.iter
      (fun (name, s) -> Printf.printf "  %-34s %10.4f s %6.2f%%\n" name s (100.0 *. s /. total))
      !Report.layers;
    Report.note "spans" (Json.Int (List.length spans));
    let span_json (s : Spans.span) =
      Json.Obj
        [ ("id", Json.Int s.id);
          ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
          ("req", Json.Int s.req);
          ("name", Json.String s.name);
          ("start", Json.Float s.start);
          ("end", Json.Float s.stop) ]
    in
    let oc = open_out (Printf.sprintf "%s-seed%d-trace1-spans.json" !workload !seed) in
    output_string oc (Json.to_string (Json.List (List.map span_json spans)));
    output_char oc '\n';
    close_out oc
  end;
  Report.emit ();
  exit (if Report.correct () then 0 else 1)
