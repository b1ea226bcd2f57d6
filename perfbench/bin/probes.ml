(* Layer probes for the traced run, after the query loop: the crypto
   primitives, one oblivious store at widths 1 and 16, region decode and
   page authentication.  Each probe times the library's public functions
   from outside. *)

module PF = Psp_storage.Page_file
module CM = Psp_pir.Cost_model
module PS = Psp_pir.Pyramid_store
module Spans = Perfbench.Spans
module C = Psp_crypto

let now = Unix.gettimeofday

(* Seconds and allocated bytes per call of [f]: the call count doubles
   until one round takes [min_seconds]; the median of five such rounds
   is kept. *)
let min_seconds = 0.02

let per_call f =
  let round n =
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    for i = 1 to n do
      f i
    done;
    let t1 = now () in
    ((t1 -. t0) /. float_of_int n, (Gc.allocated_bytes () -. a0) /. float_of_int n)
  in
  let rec calibrate n =
    let t0 = now () in
    ignore (round n);
    if now () -. t0 >= min_seconds || n >= 1 lsl 24 then n else calibrate (2 * n)
  in
  let n = calibrate 1 in
  let rounds = List.init 5 (fun _ -> round n) in
  ( Perfbench.Tail.percentile (Array.of_list (List.map fst rounds)) 0.5,
    Perfbench.Tail.percentile (Array.of_list (List.map snd rounds)) 0.5 )

let crypto tracer =
  Spans.with_span tracer "probe.crypto" (fun () ->
      let key = C.Sha256.digest_string "probe key" in
      let nonce = Bytes.make 12 '\007' in
      let page = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
      let chacha_s, chacha_b =
        per_call (fun _ -> ignore (C.Chacha20.encrypt ~key ~nonce page))
      in
      let sha_s, _ = per_call (fun _ -> ignore (C.Sha256.digest page)) in
      let hmac_s, hmac_b = per_call (fun _ -> ignore (C.Hmac.mac ~key page)) in
      let derive_s, _ = per_call (fun _ -> ignore (C.Hmac.derive ~key ~label:"slot-mac")) in
      let feistel = C.Feistel.create ~key ~domain:4096 in
      let feistel_s, _ = per_call (fun i -> ignore (C.Feistel.forward feistel (i land 4095))) in
      let bloom = C.Bloom.sized_for ~key ~label:"probe" ~expected:1024 ~fp_rate:0.01 in
      for i = 0 to 1023 do
        C.Bloom.add bloom (2 * i)
      done;
      let bloom_s, _ = per_call (fun i -> ignore (C.Bloom.mem bloom (i land 2047))) in
      Report.metric "crypto.chacha20_4k_us" "us" (chacha_s *. 1e6);
      Report.metric "crypto.sha256_4k_us" "us" (sha_s *. 1e6);
      Report.metric "crypto.hmac_4k_us" "us" (hmac_s *. 1e6);
      Report.metric "crypto.hmac_derive_us" "us" (derive_s *. 1e6);
      Report.metric "crypto.feistel_forward_ns" "ns" (feistel_s *. 1e9);
      Report.metric "crypto.bloom_mem_ns" "ns" (bloom_s *. 1e9);
      Report.metric "crypto.chacha20_4k_alloc_b" "B" chacha_b;
      Report.metric "crypto.hmac_4k_alloc_b" "B" hmac_b)

let has_rebuild = List.exists (function PS.Rebuild _ -> true | PS.Slot _ -> false)

let rebuilt_items =
  List.fold_left (fun acc -> function PS.Rebuild { items; _ } -> acc + items | PS.Slot _ -> acc) 0

(* One Pyramid store per width over [file], each serving [accesses]
   logical reads (a multiple of 16).  Obliviousness makes the cost
   independent of the page ids, so they are simply pseudo-random. *)
let store tracer file ~accesses =
  Spans.with_span tracer "probe.store" (fun () ->
      let pages = PF.page_count file in
      let rng = Psp_util.Rng.create 7 in
      let ids = Array.init accesses (fun _ -> Psp_util.Rng.int rng pages) in
      let w1 = PS.create ~key:Setup.key file in
      let quiet = ref [] and rebuild = ref [] and items = ref 0 and total = ref 0.0 in
      Array.iter
        (fun id ->
          PS.clear_trace w1;
          let t0 = now () in
          ignore (PS.fetch_many w1 [| id |]);
          let dt = now () -. t0 in
          total := !total +. dt;
          let events = PS.physical_trace w1 in
          items := !items + rebuilt_items events;
          if has_rebuild events then rebuild := dt :: !rebuild else quiet := dt :: !quiet)
        ids;
      let w16 = PS.create ~key:Setup.key file in
      let t0 = now () in
      for b = 0 to (accesses / 16) - 1 do
        ignore (PS.fetch_many w16 (Array.sub ids (16 * b) 16))
      done;
      let total16 = now () -. t0 in
      let n = float_of_int accesses in
      let mean = function
        | [] -> 0.0
        | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
      in
      let levels = PS.level_count w1 in
      let model_w1 = CM.pir_fetch_seconds Setup.cost ~file_pages:pages in
      let model_w16 =
        CM.pir_batch_fetch_seconds Setup.cost ~file_pages:pages ~levels ~batch:16 /. 16.0
      in
      Report.note "pir.store.file" (Psp_obs.Json.String (PF.name file));
      Report.note "pir.store.accesses" (Psp_obs.Json.Int accesses);
      Report.metric "pir.store.levels" "count" (float_of_int levels);
      Report.metric "pir.store.fetch_us.w1" "us" (!total /. n *. 1e6);
      Report.metric "pir.store.fetch_us.w16" "us" (total16 /. n *. 1e6);
      Report.metric "pir.store.batch_gain" "x" (!total /. total16);
      Report.metric "pir.store.model_batch_gain" "x" (model_w1 /. model_w16);
      Report.metric "pir.store.rebuild_fetch_ms" "ms" (mean !rebuild *. 1e3);
      Report.metric "pir.store.quiet_fetch_us" "us" (mean !quiet *. 1e6);
      Report.metric "pir.store.rebuild_items_per_access" "count" (float_of_int !items /. n))

(* Region decode over every page of a CI data file (one region per page
   under packed partitioning). *)
let decode tracer data =
  Spans.with_span tracer "probe.decode" (fun () ->
      let blobs = Array.init (PF.page_count data) (PF.payload data) in
      let n = Array.length blobs in
      let s, _ =
        per_call (fun i ->
            let blob = blobs.(i mod n) in
            ignore (Psp_index.Encoding.decode_region Psp_index.Encoding.plain_config blob))
      in
      Report.metric "index.decode_region_us" "us" (s *. 1e6))

let authenticate tracer file =
  Spans.with_span tracer "probe.authenticate" (fun () ->
      let pages = Array.init (PF.page_count file) (PF.read file) in
      let n = Array.length pages in
      let s, _ =
        per_call (fun i ->
            if not (PF.authenticate file ~key:Setup.key (i mod n) pages.(i mod n)) then
              Report.invariant_broken
                (Printf.sprintf "page %d of %s fails authentication" (i mod n) (PF.name file)))
      in
      Report.metric "storage.authenticate_us" "us" (s *. 1e6))
