(* Order statistics for the end-to-end benchmark: the percentile rule
   the report applies to latencies, and the quartiles [compare] uses to
   judge run-to-run spread. *)

(* Percentiles are named in tenths of a percent (p50 = 500, p99 = 990)
   so the rank arithmetic below stays in integers. *)
let rank ~n ~per_mille = max 1 ((per_mille * n + 999) / 1000)

(* Nearest rank: the smallest sample with at least [per_mille]/1000 of
   the samples at or below it. Reported only when at least [beyond]
   samples lie above it — a tail percentile read off a handful of
   samples is noise, so the benchmark leaves it out. [sorted] is
   ascending. *)
let percentile ?(beyond = 10) sorted ~per_mille =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let r = rank ~n ~per_mille in
    if n - r >= beyond then Some sorted.(r - 1) else None

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median values =
  let s = sorted_copy values in
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Python's [statistics.quantiles(values, n=4)] (its default "exclusive"
   method), reproduced exactly so the spreads [compare] prints are the
   ones a Python check of the same result files computes. *)
let quartiles values =
  let d = sorted_copy values in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let mean values =
  let n = Array.length values in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. values /. float_of_int n
