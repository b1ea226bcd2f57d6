(* The correctness gate, run outside every timed region: each answer
   must be Served, cost exactly what Dijkstra says, and leave a trace
   that conforms to the public plan (Theorem 1); on Pyramid servers the
   executed slot touches must equal the cost model's basis. *)

module PF = Psp_storage.Page_file
module CM = Psp_pir.Cost_model
module Server = Psp_pir.Server
module Client = Psp_core.Client

(* Region pages store edge weights as float32 (Encoding.plain_config),
   so a client's path cost carries each weight's rounding, at most 2^-24
   of it; Dijkstra on the server-side graph sums the exact doubles.  A
   relative 1e-6 admits that rounding and nothing a wrong path could
   hide in. *)
let same_cost a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

let answer ~truth (r : Client.result) =
  match (r.Client.status, r.Client.path) with
  | Client.Served, Some (_, cost) when same_cost cost truth -> Ok ()
  | Client.Served, Some (_, cost) ->
      Error (Printf.sprintf "path cost %.9g, Dijkstra %.9g" cost truth)
  | Client.Served, None -> Error "no path returned"
  | Client.Degraded { retries }, _ -> Error (Printf.sprintf "degraded after %d retries" retries)
  | Client.Unavailable { point; attempts }, _ ->
      Error (Printf.sprintf "unavailable at %s after %d attempts" point attempts)
  | Client.Unknown_scheme { scheme }, _ -> Error ("unknown scheme " ^ scheme)

let plan (db : Psp_index.Database.t) (r : Client.result) =
  Psp_core.Privacy.conforms db.Psp_index.Database.header
    ~header_pages:(PF.page_count db.Psp_index.Database.header_file)
    r.Client.stats.Server.Session.trace

let levels server file =
  CM.pyramid_levels ~cache_capacity:Psp_pir.Pyramid_store.default_cache_capacity
    ~file_pages:(PF.page_count (Server.file server file))

(* Slot touches a width-[width] batch executes: for every fetch slot of
   the plan, one full pass for the first member plus the cost model's
   marginal basis for the others. *)
let expected_touches server (r : Client.result) ~width =
  List.fold_left
    (fun acc (file, count) ->
      let l = levels server file in
      acc + (count * (l + CM.batch_probe_touches ~levels:l ~batch:width)))
    0 r.Client.stats.Server.Session.pir_fetches

let touches ~got ~want =
  if got = want then Ok ()
  else Error (Printf.sprintf "executed %d slot touches, cost-model basis %d" got want)

(* The first failed check of one query, if any. *)
let first_error checks =
  List.fold_left (fun acc c -> match acc with Error _ -> acc | Ok () -> c ()) (Ok ()) checks
