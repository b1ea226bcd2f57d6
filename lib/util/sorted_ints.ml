let rec increasing_from (a : int array) i =
  i >= Array.length a || (a.(i - 1) < a.(i) && increasing_from a (i + 1))

(* Input that is already a set (the builders' usual case) is copied
   without a sort. *)
let of_array a =
  let a = Array.copy a in
  let n = Array.length a in
  if increasing_from a 1 then a
  else begin
    Array.sort Int.compare a;
    let kept = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!kept - 1) then begin
        a.(!kept) <- a.(i);
        incr kept
      end
    done;
    if !kept = n then a else Array.sub a 0 !kept
  end

(* [diff] and [union] share one walk; a union also outputs the common
   elements (once) and the second array's own. *)
let merge ~union (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + if union then nb else 0) 0 in
  let k = ref 0 in
  let emit v =
    out.(!k) <- v;
    incr k
  in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      if union then emit x;
      incr i;
      incr j
    end
    else if x < y then begin
      emit x;
      incr i
    end
    else begin
      if union then emit y;
      incr j
    end
  done;
  while !i < na do
    emit a.(!i);
    incr i
  done;
  if union then
    while !j < nb do
      emit b.(!j);
      incr j
    done;
  if !k = Array.length out then out else Array.sub out 0 !k

let diff a b = merge ~union:false a b
let union a b = merge ~union:true a b

let inter_cardinal (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j acc =
    if i >= na || j >= nb then acc
    else
      let x = a.(i) and y = b.(j) in
      if x = y then go (i + 1) (j + 1) (acc + 1)
      else if x < y then go (i + 1) j acc
      else go i (j + 1) acc
  in
  go 0 0 0
