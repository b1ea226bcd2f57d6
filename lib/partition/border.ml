module G = Psp_graph.Graph

type t = {
  region_count : int;
  border : int array array; (* region -> outside endpoints *)
  entering : int array array; (* region -> edge ids entering it *)
  crossing : int array; (* region -> crossing edge count *)
}

let compute g ~assignment ~region_count =
  if Array.length assignment <> G.node_count g then
    invalid_arg "Border.compute: assignment length mismatch";
  let border = Array.make region_count [] in
  let entering = Array.make region_count [] in
  let crossing = Array.make region_count 0 in
  G.iter_edges g (fun e ->
      let ru = assignment.(e.G.src) and rv = assignment.(e.G.dst) in
      if ru <> rv then begin
        (* outside endpoint for the source's region is dst, and vice versa *)
        border.(ru) <- e.G.dst :: border.(ru);
        border.(rv) <- e.G.src :: border.(rv);
        entering.(rv) <- e.G.id :: entering.(rv);
        crossing.(ru) <- crossing.(ru) + 1;
        crossing.(rv) <- crossing.(rv) + 1
      end);
  { region_count;
    border = Array.map (fun l -> Psp_util.Sorted_ints.of_array (Array.of_list l)) border;
    entering = Array.map (fun l -> Psp_util.Sorted_ints.of_array (Array.of_list l)) entering;
    crossing }

let region_count t = t.region_count
let border_nodes t r = Array.copy t.border.(r)

let all_border_nodes t =
  Psp_util.Sorted_ints.of_array (Array.concat (Array.to_list t.border))

let entering_edges t r = Array.copy t.entering.(r)
let crossing_count t r = t.crossing.(r)
