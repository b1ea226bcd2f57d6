(* Graph engine: CSR structure, Dijkstra against a Bellman–Ford oracle,
   A*/bidirectional/landmark/arc-flag equivalence with Dijkstra. *)

module G = Psp_graph.Graph

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* small connected test graph:
       0 --1.0-- 1 --1.0-- 2
       |                   |
      5.0                 1.0
       |                   |
       3 ------1.0-------- 4
   plus a directed shortcut 0 -> 4 with weight 3.5 *)
let diamond () =
  let b = G.Builder.create () in
  let coords = [ (0.0, 0.0); (1.0, 0.0); (2.0, 0.0); (0.0, -1.0); (2.0, -1.0) ] in
  List.iter (fun (x, y) -> ignore (G.Builder.add_node b ~x ~y)) coords;
  G.Builder.add_undirected b 0 1 1.0;
  G.Builder.add_undirected b 1 2 1.0;
  G.Builder.add_undirected b 0 3 5.0;
  G.Builder.add_undirected b 2 4 1.0;
  G.Builder.add_undirected b 3 4 1.0;
  G.Builder.add_edge b 0 4 3.5;
  G.Builder.freeze b

(* random connected graph generator for property tests: a random tree
   plus extra random edges, generic weights *)
let random_graph_gen =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* extra = int_range 0 60 in
    let* seed = int_range 0 10_000 in
    return (n, extra, seed))

let build_random (n, extra, seed) =
  let rng = Psp_util.Rng.create seed in
  let b = G.Builder.create () in
  for _ = 1 to n do
    ignore
      (G.Builder.add_node b ~x:(Psp_util.Rng.float rng 100.0)
         ~y:(Psp_util.Rng.float rng 100.0))
  done;
  for v = 1 to n - 1 do
    let u = Psp_util.Rng.int rng v in
    G.Builder.add_undirected b u v (0.5 +. Psp_util.Rng.float rng 10.0)
  done;
  for _ = 1 to extra do
    let u = Psp_util.Rng.int rng n and v = Psp_util.Rng.int rng n in
    if u <> v then G.Builder.add_edge b u v (0.5 +. Psp_util.Rng.float rng 10.0)
  done;
  G.Builder.freeze b

(* O(VE) Bellman–Ford reference *)
let bellman_ford g source =
  let n = G.node_count g in
  let dist = Array.make n infinity in
  dist.(source) <- 0.0;
  for _ = 1 to n do
    G.iter_edges g (fun e ->
        if dist.(e.G.src) +. e.G.weight < dist.(e.G.dst) then
          dist.(e.G.dst) <- dist.(e.G.src) +. e.G.weight)
  done;
  dist

let close a b = (a = infinity && b = infinity) || Float.abs (a -. b) < 1e-6

(* ------------------------------------------------------------------ *)

let test_builder_csr () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 5 (G.node_count g);
  Alcotest.(check int) "edges" 11 (G.edge_count g);
  Alcotest.(check int) "deg 0" 3 (G.out_degree g 0);
  let targets = G.fold_out g 0 (fun acc e -> e.G.dst :: acc) [] in
  Alcotest.(check int) "three out-edges of 0" 3 (List.length targets);
  List.iter
    (fun t -> Alcotest.(check bool) "expected target" true (List.mem t [ 1; 3; 4 ]))
    targets

let test_builder_validation () =
  let b = G.Builder.create () in
  ignore (G.Builder.add_node b ~x:0.0 ~y:0.0);
  Alcotest.check_raises "unknown endpoint"
    (Invalid_argument "Graph.Builder.add_edge: unknown endpoint") (fun () ->
      G.Builder.add_edge b 0 1 1.0);
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Graph.Builder.add_edge: weight must be positive") (fun () ->
      G.Builder.add_edge b 0 0 0.0)

let test_iter_in_matches_out () =
  let g = diamond () in
  let in_edges = ref [] in
  G.iter_in g 4 (fun e -> in_edges := (e.G.src, e.G.dst) :: !in_edges);
  List.iter (fun (_, d) -> Alcotest.(check int) "incoming ends at 4" 4 d) !in_edges;
  Alcotest.(check int) "in-degree of 4" 3 (List.length !in_edges)

let test_reverse () =
  let g = diamond () in
  let r = G.reverse g in
  Alcotest.(check int) "same edges" (G.edge_count g) (G.edge_count r);
  (* directed shortcut 0->4 becomes 4->0 *)
  let has_40 = G.fold_out r 4 (fun acc e -> acc || e.G.dst = 0) false in
  Alcotest.(check bool) "flipped shortcut" true has_40

let test_euclidean_and_bbox () =
  let g = diamond () in
  Alcotest.(check (float 1e-9)) "euclid" 2.0 (G.euclidean g 0 2);
  let x0, y0, x1, y1 = G.bounding_box g in
  Alcotest.(check (float 0.0)) "min x" 0.0 x0;
  Alcotest.(check (float 0.0)) "min y" (-1.0) y0;
  Alcotest.(check (float 0.0)) "max x" 2.0 x1;
  Alcotest.(check (float 0.0)) "max y" 0.0 y1;
  Alcotest.(check int) "nearest" 4 (G.nearest_node g ~x:1.9 ~y:(-0.9))

let test_subgraph_of_edges () =
  let g = diamond () in
  (* keep only the top chain 0-1-2 *)
  let keep =
    G.fold_out g 0 (fun acc e -> if e.G.dst = 1 then e.G.id :: acc else acc) []
    @ G.fold_out g 1 (fun acc e -> if e.G.dst = 2 then e.G.id :: acc else acc) []
  in
  let sub = G.subgraph_of_edges g keep in
  Alcotest.(check int) "edges kept" 2 (G.edge_count sub);
  Alcotest.(check (float 1e-6)) "path via chain" 2.0 (Psp_graph.Dijkstra.distance sub 0 2);
  Alcotest.(check bool) "no path back" true (Psp_graph.Dijkstra.distance sub 2 0 = infinity)

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_dijkstra_diamond () =
  let g = diamond () in
  Alcotest.(check (float 1e-9)) "0->2" 2.0 (Psp_graph.Dijkstra.distance g 0 2);
  Alcotest.(check (float 1e-9)) "0->4 via chain beats shortcut" 3.0
    (Psp_graph.Dijkstra.distance g 0 4);
  Alcotest.(check (float 1e-9)) "0->3" 4.0 (Psp_graph.Dijkstra.distance g 0 3);
  Alcotest.(check (float 0.0)) "self" 0.0 (Psp_graph.Dijkstra.distance g 2 2)

let dijkstra_vs_bellman_ford =
  qtest "dijkstra matches bellman-ford" random_graph_gen (fun spec ->
      let g = build_random spec in
      let spt = Psp_graph.Dijkstra.tree g ~source:0 in
      let reference = bellman_ford g 0 in
      Array.for_all2 close spt.Psp_graph.Dijkstra.dist reference)

let dijkstra_path_valid =
  qtest "dijkstra paths are valid and cost-consistent" random_graph_gen (fun spec ->
      let g = build_random spec in
      let n = G.node_count g in
      let ok = ref true in
      for t = 0 to min (n - 1) 10 do
        match Psp_graph.Dijkstra.shortest_path g 0 t with
        | None -> ()
        | Some p ->
            if not (Psp_graph.Path.is_valid g p) then ok := false;
            if not (close (Psp_graph.Path.cost p) (Psp_graph.Dijkstra.distance g 0 t)) then
              ok := false
      done;
      !ok)

let dijkstra_workspace_reuse =
  qtest "tree_in on a reused workspace = tree" random_graph_gen (fun spec ->
      let g = build_random spec in
      let ws = Psp_graph.Dijkstra.workspace g in
      let same (a : Psp_graph.Dijkstra.spt) (b : Psp_graph.Dijkstra.spt) =
        a.dist = b.dist && a.parent = b.parent && a.parent_edge = b.parent_edge
        && a.settled = b.settled
      in
      (* every source in turn, so each search starts from the previous
         one's leftovers *)
      List.for_all
        (fun source ->
          same (Psp_graph.Dijkstra.tree_in ws ~source) (Psp_graph.Dijkstra.tree g ~source))
        (List.init (G.node_count g) Fun.id))

let test_dijkstra_tree_until () =
  let g = diamond () in
  let spt = Psp_graph.Dijkstra.tree_until g ~source:0 ~targets:[ 1 ] in
  Alcotest.(check (float 1e-9)) "target settled" 1.0 spt.Psp_graph.Dijkstra.dist.(1);
  Alcotest.(check bool) "early stop" true (spt.Psp_graph.Dijkstra.settled <= 3)

let test_dijkstra_restricted () =
  let g = diamond () in
  (* forbid node 1: 0->2 must go 0->4 (shortcut) ->2 *)
  let allowed v = v <> 1 in
  match Psp_graph.Dijkstra.restricted g ~allowed ~source:0 ~target:2 with
  | None -> Alcotest.fail "expected a path"
  | Some p -> Alcotest.(check (float 1e-9)) "detour cost" 4.5 (Psp_graph.Path.cost p)

let test_dijkstra_unreachable () =
  let b = G.Builder.create () in
  ignore (G.Builder.add_node b ~x:0.0 ~y:0.0);
  ignore (G.Builder.add_node b ~x:1.0 ~y:0.0);
  let g = G.Builder.freeze b in
  Alcotest.(check bool) "unreachable" true (Psp_graph.Dijkstra.distance g 0 1 = infinity);
  Alcotest.(check bool) "no path" true (Psp_graph.Dijkstra.shortest_path g 0 1 = None)

(* ------------------------------------------------------------------ *)
(* A* *)

let astar_equals_dijkstra =
  qtest "euclidean A* finds optimal costs" random_graph_gen (fun spec ->
      let g = build_random spec in
      let n = G.node_count g in
      let ok = ref true in
      for t = 0 to min (n - 1) 8 do
        let d = Psp_graph.Dijkstra.distance g 0 t in
        let a = Psp_graph.Astar.search_euclidean g ~source:0 ~target:t in
        (match (a.Psp_graph.Astar.path, d = infinity) with
        | None, true -> ()
        | Some p, false -> if not (close (Psp_graph.Path.cost p) d) then ok := false
        | _ -> ok := false)
      done;
      !ok)

let test_astar_visited_order () =
  let g = diamond () in
  let order =
    Psp_graph.Astar.visited_order g
      ~heuristic:(Psp_graph.Astar.euclidean_heuristic g ~target:2)
      ~source:0 ~target:2
  in
  Alcotest.(check int) "starts at source" 0 (List.hd order);
  Alcotest.(check int) "ends at target" 2 (List.nth order (List.length order - 1))

(* ------------------------------------------------------------------ *)
(* Bidirectional *)

let bidirectional_equals_dijkstra =
  qtest "bidirectional matches dijkstra" random_graph_gen (fun spec ->
      let g = build_random spec in
      let n = G.node_count g in
      let ok = ref true in
      for t = 0 to min (n - 1) 8 do
        let d = Psp_graph.Dijkstra.distance g 0 t in
        let b = Psp_graph.Bidirectional.distance g 0 t in
        if not (close d b) then ok := false
      done;
      !ok)

let bidirectional_path_valid =
  qtest "bidirectional paths are valid" random_graph_gen (fun spec ->
      let g = build_random spec in
      let n = G.node_count g in
      let ok = ref true in
      for t = 0 to min (n - 1) 6 do
        match
          (Psp_graph.Bidirectional.search g ~source:0 ~target:t).Psp_graph.Bidirectional.path
        with
        | None -> ()
        | Some p ->
            if not (Psp_graph.Path.is_valid g p) then ok := false;
            if Psp_graph.Path.source p <> 0 || Psp_graph.Path.target p <> t then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Landmark (ALT) *)

let test_landmark_admissible_and_exact () =
  let g = build_random (30, 40, 77) in
  let lm = Psp_graph.Landmark.select_farthest g ~count:4 ~seed:3 in
  Alcotest.(check int) "anchors" 4 (Psp_graph.Landmark.anchor_count lm);
  for t = 0 to 9 do
    let h = Psp_graph.Landmark.heuristic lm ~target:t in
    for v = 0 to 29 do
      let d = Psp_graph.Dijkstra.distance g v t in
      if d < infinity then Alcotest.(check bool) "admissible" true (h v <= d +. 1e-6)
    done;
    let a = Psp_graph.Astar.search g ~heuristic:h ~source:5 ~target:t in
    let d = Psp_graph.Dijkstra.distance g 5 t in
    match a.Psp_graph.Astar.path with
    | None -> Alcotest.(check bool) "both unreachable" true (d = infinity)
    | Some p -> Alcotest.(check bool) "optimal" true (close (Psp_graph.Path.cost p) d)
  done

let test_landmark_vector_bytes () =
  let g = diamond () in
  let lm = Psp_graph.Landmark.select_farthest g ~count:3 ~seed:1 in
  Alcotest.(check int) "8 bytes per anchor" 24 (Psp_graph.Landmark.vector_bytes lm)

(* ------------------------------------------------------------------ *)
(* Arc-flags *)

let grid_regions g cells =
  (* partition nodes into [cells] vertical stripes by x coordinate *)
  let x0, _, x1, _ = G.bounding_box g in
  let width = (x1 -. x0) /. float_of_int cells in
  Array.init (G.node_count g) (fun v ->
      min (cells - 1) (max 0 (int_of_float ((G.x g v -. x0) /. Float.max width 1e-9))))

let arcflag_exact =
  qtest ~count:30 "arc-flag query matches dijkstra" random_graph_gen (fun spec ->
      let g = build_random spec in
      let region_of = grid_regions g 4 in
      let af = Psp_graph.Arcflag.compute g ~region_of ~region_count:4 in
      let n = G.node_count g in
      let ok = ref true in
      for t = 0 to min (n - 1) 8 do
        let d = Psp_graph.Dijkstra.distance g 0 t in
        let r = Psp_graph.Arcflag.query af g ~region_of ~source:0 ~target:t in
        (match (r.Psp_graph.Arcflag.path, d = infinity) with
        | None, true -> ()
        | Some p, false -> if not (close (Psp_graph.Path.cost p) d) then ok := false
        | _ -> ok := false)
      done;
      !ok)

let test_arcflag_internal_edges_flagged () =
  let g = build_random (20, 20, 5) in
  let region_of = grid_regions g 3 in
  let af = Psp_graph.Arcflag.compute g ~region_of ~region_count:3 in
  G.iter_edges g (fun e ->
      if region_of.(e.G.src) = region_of.(e.G.dst) then
        Alcotest.(check bool) "internal edge has own-region flag" true
          (Psp_graph.Arcflag.flag af ~edge:e.G.id ~region:region_of.(e.G.dst)))

let test_arcflag_prunes () =
  let g = build_random (40, 30, 9) in
  let region_of = grid_regions g 4 in
  let af = Psp_graph.Arcflag.compute g ~region_of ~region_count:4 in
  Alcotest.(check int) "flag bytes" 1 (Psp_graph.Arcflag.flag_bytes_per_edge af);
  let pruned = ref false in
  G.iter_edges g (fun e ->
      for r = 0 to 3 do
        if not (Psp_graph.Arcflag.flag af ~edge:e.G.id ~region:r) then pruned := true
      done);
  Alcotest.(check bool) "some pruning happens" true !pruned

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_make_and_validate () =
  let g = diamond () in
  let e01 = G.fold_out g 0 (fun acc e -> if e.G.dst = 1 then Some e.G.id else acc) None in
  let e12 = G.fold_out g 1 (fun acc e -> if e.G.dst = 2 then Some e.G.id else acc) None in
  let p = Psp_graph.Path.make g ~edges:[ Option.get e01; Option.get e12 ] in
  Alcotest.(check int) "source" 0 (Psp_graph.Path.source p);
  Alcotest.(check int) "target" 2 (Psp_graph.Path.target p);
  Alcotest.(check int) "hops" 2 (Psp_graph.Path.hop_count p);
  Alcotest.(check (float 1e-9)) "cost" 2.0 (Psp_graph.Path.cost p);
  Alcotest.(check bool) "valid" true (Psp_graph.Path.is_valid g p);
  Alcotest.check_raises "non-contiguous"
    (Invalid_argument "Path.make: edges are not contiguous") (fun () ->
      ignore (Psp_graph.Path.make g ~edges:[ Option.get e12; Option.get e01 ]))

let test_path_trivial () =
  let p = Psp_graph.Path.trivial 7 in
  Alcotest.(check int) "source=target" 7 (Psp_graph.Path.source p);
  Alcotest.(check (float 0.0)) "zero cost" 0.0 (Psp_graph.Path.cost p);
  Alcotest.(check int) "no hops" 0 (Psp_graph.Path.hop_count p)

let () =
  Alcotest.run "graph"
    [ ( "structure",
        [ Alcotest.test_case "builder/CSR" `Quick test_builder_csr;
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "iter_in" `Quick test_iter_in_matches_out;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "euclid/bbox/nearest" `Quick test_euclidean_and_bbox;
          Alcotest.test_case "subgraph of edges" `Quick test_subgraph_of_edges ] );
      ( "dijkstra",
        [ Alcotest.test_case "diamond" `Quick test_dijkstra_diamond;
          dijkstra_vs_bellman_ford;
          dijkstra_path_valid;
          Alcotest.test_case "tree_until" `Quick test_dijkstra_tree_until;
          Alcotest.test_case "restricted" `Quick test_dijkstra_restricted;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          dijkstra_workspace_reuse ] );
      ( "astar",
        [ astar_equals_dijkstra;
          Alcotest.test_case "visited order" `Quick test_astar_visited_order ] );
      ( "bidirectional", [ bidirectional_equals_dijkstra; bidirectional_path_valid ] );
      ( "landmark",
        [ Alcotest.test_case "admissible and exact" `Slow test_landmark_admissible_and_exact;
          Alcotest.test_case "vector bytes" `Quick test_landmark_vector_bytes ] );
      ( "arcflag",
        [ arcflag_exact;
          Alcotest.test_case "internal edges flagged" `Quick test_arcflag_internal_edges_flagged;
          Alcotest.test_case "prunes" `Quick test_arcflag_prunes ] );
      ( "path",
        [ Alcotest.test_case "make/validate" `Quick test_path_make_and_validate;
          Alcotest.test_case "trivial" `Quick test_path_trivial ] ) ]
