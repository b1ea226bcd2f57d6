let min_beyond = 10

let rank ~n p =
  if n < 1 then invalid_arg "Tail.rank: no samples";
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Tail.rank: p must be in (0, 1]";
  (* the epsilon keeps 0.9 * 100 at rank 90 despite float rounding *)
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let beyond ~n p = n - rank ~n p
let tail_ok ~n p = beyond ~n p >= min_beyond

let min_samples p =
  let rec go n = if tail_ok ~n p then n else go (n + 1) in
  go 1

let percentile samples p =
  let n = Array.length samples in
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  sorted.(rank ~n p - 1)
