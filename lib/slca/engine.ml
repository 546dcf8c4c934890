open Xr_xml
module Inverted = Xr_index.Inverted

type algorithm =
  | Stack
  | Scan_eager
  | Indexed_lookup
  | Multiway
  | Stack_packed
  | Scan_packed
  | Scan_parallel

let all = [ Stack; Scan_eager; Indexed_lookup; Multiway; Stack_packed; Scan_packed; Scan_parallel ]

let name = function
  | Stack -> "stack"
  | Scan_eager -> "scan-eager"
  | Indexed_lookup -> "indexed-lookup"
  | Multiway -> "multiway"
  | Stack_packed -> "stack-packed"
  | Scan_packed -> "scan-packed"
  | Scan_parallel -> "scan-parallel"

let of_name = function
  | "stack" -> Some Stack
  | "scan-eager" -> Some Scan_eager
  | "indexed-lookup" -> Some Indexed_lookup
  | "multiway" -> Some Multiway
  | "stack-packed" -> Some Stack_packed
  | "scan-packed" -> Some Scan_packed
  | "scan-parallel" | "parallel" -> Some Scan_parallel
  | _ -> None

let is_packed = function
  | Stack_packed | Scan_packed | Scan_parallel -> true
  | Stack | Scan_eager | Indexed_lookup | Multiway -> false

let packed_partner = function
  | Stack | Stack_packed -> Stack_packed
  | Scan_eager | Indexed_lookup | Multiway | Scan_packed -> Scan_packed
  | Scan_parallel -> Scan_parallel

let pack_list (l : Inverted.posting array) =
  Dewey.Packed.of_array (Array.map (fun p -> p.Inverted.dewey) l)

(* Kernels ignore the path component, so a list-based algorithm can run
   on packed input through a throwaway materialization with dummy paths. *)
let unpack_list pk =
  Array.init (Dewey.Packed.length pk) (fun i ->
      { Inverted.dewey = Dewey.Packed.get pk i; path = 0 })

let compute_raw alg lists =
  match alg with
  | Stack -> Stack_slca.compute lists
  | Scan_eager -> Scan_eager.compute lists
  | Indexed_lookup -> Indexed_lookup.compute lists
  | Multiway -> Multiway.compute lists
  | Stack_packed -> Stack_packed.compute (List.map pack_list lists)
  | Scan_packed -> Scan_packed.compute (List.map pack_list lists)
  | Scan_parallel -> Parallel.compute (List.map pack_list lists)

let compute_packed_raw alg lists =
  match alg with
  | Stack_packed -> Stack_packed.compute lists
  | Scan_packed -> Scan_packed.compute lists
  | Scan_parallel -> Parallel.compute lists
  | Stack | Scan_eager | Indexed_lookup | Multiway ->
    compute_raw alg (List.map unpack_list lists)

let unpack_range (pk, lo, hi) =
  Array.init (hi - lo) (fun i -> { Inverted.dewey = Dewey.Packed.get pk (lo + i); path = 0 })

(* Every public entry wraps the dispatch in one [slca.scan] span (a
   single [Atomic.get] when tracing is off); the [_raw] split keeps the
   internal cross-calls from nesting duplicate spans. *)
let scan_span f = Xr_obs.Tracing.with_span "slca.scan" f

let compute alg lists = scan_span (fun () -> compute_raw alg lists)

let compute_packed alg lists = scan_span (fun () -> compute_packed_raw alg lists)

let compute_ranges alg ranges =
  scan_span (fun () ->
      match alg with
      | Stack_packed -> Stack_packed.compute_ranges ranges
      | Scan_packed -> Scan_packed.compute_ranges ranges
      | Scan_parallel -> Parallel.compute_ranges ranges
      | Stack | Scan_eager | Indexed_lookup | Multiway ->
        compute_raw alg (List.map unpack_range ranges))

(* On a DAG-backed index every algorithm runs on the memoized merged
   lists, so it behaves exactly as on a flat index. The list-based branch
   decodes the packed lists on every call. *)
let query_ids alg (index : Xr_index.Index.t) ids =
  scan_span (fun () ->
      if is_packed alg then begin
        (* DAG backing: merge the missing flat views concurrently
           before the (inherently serial) list mapping below *)
        Inverted.prefetch index.inverted ids;
        compute_packed_raw alg
          (List.map
             (fun kw -> (Inverted.packed_list index.inverted kw).Inverted.labels)
             ids)
      end
      else compute_raw alg (List.map (fun kw -> Inverted.list index.inverted kw) ids))

let query alg (index : Xr_index.Index.t) keywords =
  (* duplicate keywords add no constraint under conjunctive semantics *)
  let distinct = List.sort_uniq String.compare (List.map Token.normalize keywords) in
  let rec resolve acc = function
    | [] -> Some (List.rev acc)
    | k :: rest -> (
      match Doc.keyword_id index.doc k with
      | Some kw -> resolve (kw :: acc) rest
      | None -> None)
  in
  match resolve [] distinct with
  | None -> []
  | Some ids -> query_ids alg index ids
