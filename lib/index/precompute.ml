module G = Psp_graph.Graph
module Bitset = Psp_util.Bitset

type t = {
  region_count : int;
  sets : Bitset.t array option; (* pair index -> region ids, R bits *)
  subgraphs : Bitset.t array option; (* pair index -> edge ids, E bits *)
}

let pair_index ~region_count i j =
  let i, j = if i <= j then (i, j) else (j, i) in
  if i < 0 || j >= region_count then invalid_arg "Precompute.pair_index: out of range";
  (i * region_count) - (i * (i - 1) / 2) + (j - i)

let npairs region_count = region_count * (region_count + 1) / 2

let default_domains () = max 1 (min 4 (Domain.recommended_domain_count () - 1))

(* Per-worker state: the tree workspace, and [stamp.(v) = epoch]
   marking v as already on the union of tree chains walked for the
   current (source, j). *)
type walker = {
  tree : Psp_graph.Dijkstra.workspace;
  stamp : int array;
  mutable epoch : int;
}

(* Set one bit in each of the (i, pair index) accumulators, skipping
   the pair's own endpoint regions for region sets. *)
let rec add_region acc r = function
  | [] -> ()
  | (i, p) :: rest ->
      if r <> i then Bitset.set acc.(p) r;
      add_region acc r rest

let rec add_edge acc e = function
  | [] -> ()
  | (_, p) :: rest ->
      Bitset.set acc.(p) e;
      add_edge acc e rest

(* The per-source work: one shortest-path tree, then for each region j
   the union of the tree chains from j's reachable border nodes back to
   the source.  A walk stops at the first node already stamped for this
   (source, j): everything above it is on the union already, so each
   tree edge is visited at most once per (source, j).  The union's
   regions and edges go into every pair (i, j) with i a region the
   source borders.  Used by both the sequential path and each worker
   domain (accumulators are then per-domain and merged). *)
let process_source ~assignment ~borders_of ~border_nodes ~idx ~sets ~subs walker src =
  let spt = Psp_graph.Dijkstra.tree_in walker.tree ~source:src in
  let dist = spt.Psp_graph.Dijkstra.dist in
  let parent = spt.Psp_graph.Dijkstra.parent in
  let parent_edge = spt.Psp_graph.Dijkstra.parent_edge in
  let rows = borders_of.(src) in
  Array.iteri
    (fun j cols ->
      walker.epoch <- walker.epoch + 1;
      let epoch = walker.epoch in
      let pairs = List.map (fun i -> (i, idx i j)) rows in
      let rec walk v =
        if walker.stamp.(v) <> epoch then begin
          walker.stamp.(v) <- epoch;
          (match sets with
          | Some acc ->
              let r = assignment.(v) in
              if r <> j then add_region acc r pairs
          | None -> ());
          let e = parent_edge.(v) in
          if e >= 0 then begin
            (match subs with Some acc -> add_edge acc e pairs | None -> ());
            walk parent.(v)
          end
        end
      in
      Array.iter (fun dst -> if dist.(dst) < infinity then walk dst) cols)
    border_nodes

let compute ?domains g ~assignment ~border ~want_sets ~want_subgraphs =
  let n = G.node_count g in
  if Array.length assignment <> n then
    invalid_arg "Precompute.compute: assignment length mismatch";
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let region_count = Psp_partition.Border.region_count border in
  let pairs = npairs region_count in
  let idx = pair_index ~region_count in
  let border_nodes = Array.init region_count (Psp_partition.Border.border_nodes border) in
  (* node -> regions for which it is a border node *)
  let borders_of = Array.make n [] in
  Array.iteri
    (fun r nodes -> Array.iter (fun v -> borders_of.(v) <- r :: borders_of.(v)) nodes)
    border_nodes;
  let sources = Psp_partition.Border.all_border_nodes border in
  let make_acc want bits =
    if want then Some (Array.init pairs (fun _ -> Bitset.create bits)) else None
  in
  let run_chunk lo hi =
    let sets = make_acc want_sets region_count in
    let subs = make_acc want_subgraphs (G.edge_count g) in
    let walker =
      { tree = Psp_graph.Dijkstra.workspace g; stamp = Array.make n 0; epoch = 0 }
    in
    for k = lo to hi - 1 do
      process_source ~assignment ~borders_of ~border_nodes ~idx ~sets ~subs walker
        sources.(k)
    done;
    (sets, subs)
  in
  let total = Array.length sources in
  let sets, subs =
    if domains <= 1 || total < 2 * domains then run_chunk 0 total
    else begin
      (* each worker fills private bitsets over its source chunk; the
         results are set unions, so the merge order is irrelevant and
         the output is identical to a sequential run *)
      let chunk = (total + domains - 1) / domains in
      let workers =
        List.init domains (fun d ->
            let lo = d * chunk and hi = min total ((d + 1) * chunk) in
            Domain.spawn (fun () -> run_chunk lo hi))
      in
      let merge ~into from =
        match (into, from) with
        | Some dst, Some src -> Array.iteri (fun p b -> Bitset.union_into ~dst:dst.(p) b) src
        | _ -> ()
      in
      let first = Domain.join (List.hd workers) in
      List.iter
        (fun worker ->
          let local_sets, local_subs = Domain.join worker in
          merge ~into:(fst first) local_sets;
          merge ~into:(snd first) local_subs)
        (List.tl workers);
      first
    end
  in
  (* add the crossing edges entering each endpoint region *)
  (match subs with
  | Some acc ->
      for i = 0 to region_count - 1 do
        let entering = Psp_partition.Border.entering_edges border i in
        for j = 0 to region_count - 1 do
          Array.iter (Bitset.set acc.(idx i j)) entering
        done
      done
  | None -> ());
  { region_count; sets; subgraphs = subs }

let region_count t = t.region_count
let pair_count t = npairs t.region_count

let region_set t i j =
  match t.sets with
  | None -> invalid_arg "Precompute.region_set: sets were not computed"
  | Some sets -> Bitset.to_array sets.(pair_index ~region_count:t.region_count i j)

let subgraph t i j =
  match t.subgraphs with
  | None -> invalid_arg "Precompute.subgraph: subgraphs were not computed"
  | Some subs -> Bitset.to_array subs.(pair_index ~region_count:t.region_count i j)

let cardinalities ~fn t =
  match t.sets with
  | None -> invalid_arg ("Precompute." ^ fn ^ ": sets were not computed")
  | Some sets -> Array.map Bitset.cardinal sets

let max_set_cardinality t =
  Array.fold_left Int.max 0 (cardinalities ~fn:"max_set_cardinality" t)

let set_cardinality_histogram t =
  let sizes = cardinalities ~fn:"set_cardinality_histogram" t in
  let histogram = Array.make (Array.fold_left Int.max 0 sizes + 1) 0 in
  Array.iter (fun c -> histogram.(c) <- histogram.(c) + 1) sizes;
  histogram
