(* The run's result: every metric by name with its unit, run metadata,
   the per-layer self-time table and the correctness tally.  [emit]
   prints it as one JSON line prefixed "RESULT"; perfbench/run.py turns
   that into the benchmark's result line. *)

module Json = Psp_obs.Json

let metrics : (string * (float * string)) list ref = ref []
let meta : (string * Json.t) list ref = ref []
let layers : (string * float) list ref = ref []
let attempted = ref 0
let failed = ref 0
let broken = ref 0
let messages : string list ref = ref []

let metric name unit value =
  metrics := (name, (value, unit)) :: List.remove_assoc name !metrics;
  Printf.printf "  %-34s %16.6f %s\n%!" name value unit

let note name value = meta := (name, value) :: List.remove_assoc name !meta

let complain msg =
  if List.length !messages < 20 then messages := msg :: !messages;
  Printf.printf "ERROR %s\n%!" msg

(* A query that returned a wrong or non-Served answer, broke the plan or
   raised: it counts in [failed] and in error_rate. *)
let query_failed msg =
  incr failed;
  complain msg

(* A whole-run invariant that does not belong to one query (Simulated
   and Pyramid disagreeing on modeled latency, say). *)
let invariant_broken msg =
  incr broken;
  complain msg

let correct () = !failed = 0 && !broken = 0 && !attempted > 0

let emit () =
  let metric_json (name, (value, unit)) =
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])
  in
  let result =
    Json.Obj
      [ ("correct", Json.Bool (correct ()));
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ("metrics", Json.Obj (List.rev_map metric_json !metrics));
        ("meta", Json.Obj (List.rev !meta));
        ( "layers",
          Json.Obj (List.map (fun (name, s) -> (name, Json.Float s)) !layers) );
        ("errors", Json.List (List.rev_map (fun m -> Json.String m) !messages)) ]
  in
  print_string "RESULT ";
  print_endline (Json.to_string result)
