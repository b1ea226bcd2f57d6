(* Bechamel micro-benchmarks of the computational kernels underneath the
   schemes: exact search, ORAM reads, crypto primitives, record
   decoding, the publisher's set-up layers (border-pair pre-computation
   and PI index building, on Oldenburg at 1/32), and one end-to-end
   private query per scheme.  These measure real wall-clock on this
   machine (the experiment tables report *simulated* 2012-hardware
   times instead). *)

open Bechamel
open Toolkit
module DB = Psp_index.Database
module G = Psp_graph.Graph

let tests env =
  let g = Harness.graph env Psp_netgen.Presets.Oldenburg in
  let queries = Harness.workload env Psp_netgen.Presets.Oldenburg in
  let pick =
    let i = ref 0 in
    fun () ->
      let q = queries.(!i mod Array.length queries) in
      incr i;
      q
  in
  let db = DB.build_ci ~page_size:env.Harness.page_size g in
  let server = Psp_pir.Server.create ~cost:env.Harness.cost ~key:Harness.key (DB.files db) in
  let store_file = Psp_storage.Page_file.create ~name:"k" ~page_size:4096 in
  for i = 0 to 255 do
    ignore (Psp_storage.Page_file.append store_file (Bytes.make 64 (Char.chr (i land 0xff))))
  done;
  let store = Psp_pir.Oblivious_store.create ~key:Harness.key store_file in
  let blob = Bytes.make 4096 'x' in
  let chacha_key = Psp_crypto.Sha256.digest_string "bench" in
  let nonce = Bytes.make 12 'n' in
  (* the per-slot keyed work of a Pyramid access: a slot permutation
     over a small level, a Bloom probe and a 16-byte PRF input *)
  let feistel = Psp_crypto.Feistel.create ~key:chacha_key ~domain:300 in
  let bloom =
    Psp_crypto.Bloom.sized_for ~key:chacha_key ~label:"bench" ~expected:1024 ~fp_rate:0.01
  in
  for i = 0 to 1023 do
    Psp_crypto.Bloom.add bloom (2 * i)
  done;
  let mac_key = Psp_crypto.Hmac.prepare chacha_key in
  let msg16 = Bytes.make 16 'm' in
  let probe = ref 0 in
  let next_probe () =
    incr probe;
    !probe
  in
  (* the publisher's set-up layers, on a fixed network so the kernels
     compare across --scale settings: Oldenburg at 1/32 (190 nodes) on
     512-byte pages is 9 regions and 45 border pairs (at 4 KB pages it
     would be only 2 regions) *)
  let small = Psp_netgen.Presets.graph ~scale:32.0 Psp_netgen.Presets.Oldenburg in
  let small_page = 512 in
  let partition =
    Psp_partition.Kdtree.build_packed small
      ~node_bytes:(Psp_index.Encoding.node_bytes Psp_index.Encoding.plain_config small)
      ~capacity:(small_page - 4)
  in
  let assignment = partition.Psp_partition.Kdtree.assignment in
  let region_count = partition.Psp_partition.Kdtree.region_count in
  let border = Psp_partition.Border.compute small ~assignment ~region_count in
  let precompute () =
    Psp_index.Precompute.compute ~domains:1 small ~assignment ~border ~want_sets:true
      ~want_subgraphs:true
  in
  let pre = precompute () in
  let pi_index () =
    let builder =
      Psp_index.Fi_builder.create ~graph:small ~page_size:small_page ~compress:true
        ~quantize:0.0 ~m_bound:None
    in
    for i = 0 to region_count - 1 do
      for j = i to region_count - 1 do
        ignore
          (Psp_index.Fi_builder.add builder ~kind:Psp_index.Fi_builder.Subgraph
             (Psp_index.Precompute.subgraph pre i j))
      done
    done;
    Psp_index.Fi_builder.page_count builder
  in
  let region_blob =
    Psp_index.Encoding.encode_region Psp_index.Encoding.plain_config g
      (Psp_partition.Kdtree.nodes_of_region db.DB.partition 0)
  in
  [ Test.make ~name:"dijkstra p2p" (Staged.stage (fun () ->
        let s, t = pick () in
        ignore (Psp_graph.Dijkstra.distance g s t)));
    Test.make ~name:"bidirectional p2p" (Staged.stage (fun () ->
        let s, t = pick () in
        ignore (Psp_graph.Bidirectional.distance g s t)));
    Test.make ~name:"astar euclid p2p" (Staged.stage (fun () ->
        let s, t = pick () in
        ignore (Psp_graph.Astar.search_euclidean g ~source:s ~target:t)));
    Test.make ~name:"sha256 4KB" (Staged.stage (fun () -> ignore (Psp_crypto.Sha256.digest blob)));
    Test.make ~name:"chacha20 4KB" (Staged.stage (fun () ->
        ignore (Psp_crypto.Chacha20.encrypt ~key:chacha_key ~nonce blob)));
    Test.make ~name:"feistel forward (domain 300)" (Staged.stage (fun () ->
        ignore (Psp_crypto.Feistel.forward feistel (next_probe () mod 300))));
    Test.make ~name:"bloom mem" (Staged.stage (fun () ->
        ignore (Psp_crypto.Bloom.mem bloom (next_probe () land 2047))));
    Test.make ~name:"hmac prepared 16B" (Staged.stage (fun () ->
        ignore (Psp_crypto.Hmac.mac_prepared mac_key msg16)));
    Test.make ~name:"oram read" (Staged.stage (fun () ->
        ignore (Psp_pir.Oblivious_store.read store 17)));
    Test.make ~name:"region decode" (Staged.stage (fun () ->
        ignore (Psp_index.Encoding.decode_region Psp_index.Encoding.plain_config region_blob)));
    Test.make ~name:"precompute border pairs" (Staged.stage (fun () -> ignore (precompute ())));
    Test.make ~name:"fi_builder PI index" (Staged.stage (fun () -> ignore (pi_index ())));
    Test.make ~name:"CI private query e2e" (Staged.stage (fun () ->
        let s, t = pick () in
        ignore (Psp_core.Client.query_nodes server g s t))) ]

let run env =
  Harness.header_line "Bechamel kernels (real wall-clock on this machine)";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (tests env))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
      in
      rows := [ name; Printf.sprintf "%.1f us" (ns /. 1e3) ] :: !rows)
    results;
  Harness.table ~columns:[ "kernel"; "time/run" ] (List.sort compare !rows)
