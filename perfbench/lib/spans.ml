type span = {
  id : int;
  parent : int option;
  req : int;
  name : string;
  start : float;
  stop : float;
}

type frame = { f_id : int; f_req : int; f_name : string; f_start : float }

type t = {
  clock : unit -> float;
  mutable on : bool;
  mutable next_id : int;
  mutable next_req : int;
  mutable stack : frame list;  (** innermost first *)
  mutable closed : span list;  (** most recent first *)
}

let create ?(clock = Unix.gettimeofday) ~enabled () =
  { clock; on = enabled; next_id = 0; next_req = 0; stack = []; closed = [] }

let set_enabled t b = t.on <- b

let request t =
  let r = t.next_req in
  t.next_req <- r + 1;
  r

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let parent_of t = match t.stack with [] -> None | f :: _ -> Some f

let with_span t name f =
  if not t.on then f ()
  else begin
    let parent = parent_of t in
    let req = match parent with Some p -> p.f_req | None -> request t in
    let frame = { f_id = fresh_id t; f_req = req; f_name = name; f_start = t.clock () } in
    t.stack <- frame :: t.stack;
    Fun.protect f ~finally:(fun () ->
        let stop = t.clock () in
        (match t.stack with
        | top :: rest when top.f_id = frame.f_id -> t.stack <- rest
        | _ -> failwith "Spans.with_span: misnested span");
        t.closed <-
          { id = frame.f_id;
            parent = Option.map (fun p -> p.f_id) parent;
            req;
            name;
            start = frame.f_start;
            stop }
          :: t.closed)
  end

let add t ~name ~start ~stop =
  match parent_of t with
  | Some p when t.on ->
      t.closed <-
        { id = fresh_id t; parent = Some p.f_id; req = p.f_req; name; start; stop }
        :: t.closed
  | _ -> ()

let spans t =
  List.sort
    (fun a b -> match Float.compare a.start b.start with 0 -> compare a.id b.id | c -> c)
    t.closed

let self_time s ~children =
  let clipped =
    List.filter_map
      (fun c ->
        let a = Float.max s.start c.start and b = Float.min s.stop c.stop in
        if b > a then Some (a, b) else None)
      children
  in
  let sorted = List.sort compare clipped in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, neg_infinity) sorted
  in
  s.stop -. s.start -. covered

let layer_self_times ~root_label all =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s -> Option.iter (fun p -> Hashtbl.add kids p s) s.parent)
    all;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let name = if s.parent = None then root_label else s.name in
      let self = self_time s ~children:(Hashtbl.find_all kids s.id) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals name) in
      Hashtbl.replace totals name (prev +. self))
    all;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])
