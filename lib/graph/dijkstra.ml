type spt = {
  dist : float array;
  parent : int array;
  parent_edge : int array;
  settled : int;
}

(* Core loop shared by every entry point, over caller-supplied state
   ([dist] all infinity, [parent]/[parent_edge] all -1, [done_] all
   false, [heap] empty).  [stop] may terminate the search after a node
   is settled; [allowed] prunes relaxations. *)
let run_into ~dist ~parent ~parent_edge ~done_ ~heap g ~source ~stop ~allowed =
  let n = Graph.node_count g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  dist.(source) <- 0.0;
  Psp_util.Min_heap.push heap ~priority:0.0 source;
  let settled = ref 0 in
  let finished = ref false in
  while (not !finished) && not (Psp_util.Min_heap.is_empty heap) do
    match Psp_util.Min_heap.pop heap with
    | None -> finished := true
    | Some (d, u) ->
        if not done_.(u) then begin
          done_.(u) <- true;
          incr settled;
          if stop u then finished := true
          else
            Graph.iter_out g u (fun e ->
                let v = e.Graph.dst in
                if allowed v then begin
                  let nd = d +. e.Graph.weight in
                  if nd < dist.(v) then begin
                    dist.(v) <- nd;
                    parent.(v) <- u;
                    parent_edge.(v) <- e.Graph.id;
                    Psp_util.Min_heap.push heap ~priority:nd v
                  end
                end)
        end
  done;
  ({ dist; parent; parent_edge; settled = !settled }, done_)

let run g ~source ~stop ~allowed =
  let n = Graph.node_count g in
  run_into ~dist:(Array.make n infinity) ~parent:(Array.make n (-1))
    ~parent_edge:(Array.make n (-1)) ~done_:(Array.make n false)
    ~heap:(Psp_util.Min_heap.create ()) g ~source ~stop ~allowed

let tree g ~source =
  fst (run g ~source ~stop:(fun _ -> false) ~allowed:(fun _ -> true))

type workspace = {
  w_graph : Graph.t;
  w_dist : float array;
  w_parent : int array;
  w_parent_edge : int array;
  w_done : bool array;
  w_heap : Psp_util.Min_heap.t;
}

let workspace g =
  let n = Graph.node_count g in
  { w_graph = g;
    w_dist = Array.make n infinity;
    w_parent = Array.make n (-1);
    w_parent_edge = Array.make n (-1);
    w_done = Array.make n false;
    w_heap = Psp_util.Min_heap.create () }

let tree_in ws ~source =
  let n = Array.length ws.w_dist in
  Array.fill ws.w_dist 0 n infinity;
  Array.fill ws.w_parent 0 n (-1);
  Array.fill ws.w_parent_edge 0 n (-1);
  Array.fill ws.w_done 0 n false;
  Psp_util.Min_heap.clear ws.w_heap;
  fst
    (run_into ~dist:ws.w_dist ~parent:ws.w_parent ~parent_edge:ws.w_parent_edge
       ~done_:ws.w_done ~heap:ws.w_heap ws.w_graph ~source ~stop:(fun _ -> false)
       ~allowed:(fun _ -> true))

let tree_until g ~source ~targets =
  let pending = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace pending t ()) targets;
  let stop u =
    Hashtbl.remove pending u;
    Hashtbl.length pending = 0
  in
  fst (run g ~source ~stop ~allowed:(fun _ -> true))

let path_to g spt target =
  if spt.dist.(target) = infinity then None
  else if spt.parent.(target) = -1 then Some (Path.trivial target)
  else begin
    let rec collect v acc =
      if spt.parent_edge.(v) = -1 then acc
      else collect spt.parent.(v) (spt.parent_edge.(v) :: acc)
    in
    Some (Path.make g ~edges:(collect target []))
  end

let distance g s t =
  if s = t then 0.0
  else begin
    let spt, _ = run g ~source:s ~stop:(fun u -> u = t) ~allowed:(fun _ -> true) in
    spt.dist.(t)
  end

let shortest_path g s t =
  if s = t then Some (Path.trivial s)
  else begin
    let spt, _ = run g ~source:s ~stop:(fun u -> u = t) ~allowed:(fun _ -> true) in
    path_to g spt t
  end

let restricted g ~allowed ~source ~target =
  if not (allowed source && allowed target) then None
  else if source = target then Some (Path.trivial source)
  else begin
    let spt, _ = run g ~source ~stop:(fun u -> u = target) ~allowed in
    path_to g spt target
  end
