open Xr_xml
module P = Dewey.Packed
module PC = Xr_index.Cursor.Packed

(* Cursor probe totals, folded into the registry once per scan (two
   shard-cell adds per [scan_chunk] — invisible next to the scan
   itself, unlike counting per probe would be). *)
let probes_fam =
  Xr_obs.Registry.Counter.family ~name:"xr_cursor_probes_total"
    ~help:"Packed-cursor list accesses during SLCA scans" ~label_names:[ "mode" ] ()

let seq_probes_h = Xr_obs.Registry.Counter.handle probes_fam [ "sequential" ]

let rand_probes_h = Xr_obs.Registry.Counter.handle probes_fam [ "random" ]

(* Candidates are generated from driver entries in increasing document
   order, which forces a shape on the candidate stream: a new candidate
   is either >= the current one or a prefix (ancestor) of it. (If
   candidate [y] of a later driver entry [v'] were smaller than an
   earlier candidate [x] without being its prefix, then [v'], which
   extends [y], would order below [x] <= [v] — contradicting [v' > v].)
   So the smallest-LCA subset can be kept online with one held candidate:
   an arriving prefix is discarded, an arriving extension replaces, and
   anything else is disjoint and seals the held candidate as a result.
   This replaces the sort-based [Slca_common.prune_non_smallest] pass and
   only ever materializes actual results.

   [scan_chunk] runs that loop over the driver entries [dlo..dhi-1];
   the sequential algorithm is the whole-range case. *)
let scan_chunk ~driver:(driver, dlo, dhi) ~others () =
  let cursors = Array.of_list (List.map (fun (l, lo, hi) -> PC.make_sub l ~lo ~hi) others) in
  let ncur = Array.length cursors in
  let maxd =
    List.fold_left (fun acc (l, _, _) -> max acc (P.max_depth l)) (P.max_depth driver) others
  in
  let maxd = max maxd 1 in
  (* The one decoded label live at any time: the driver entry under
     consideration. Non-driving lists are probed in encoded form. *)
  let scratch = Array.make maxd 0 in
  let cur = Array.make maxd 0 in
  let cur_len = ref (-1) in
  let results = ref [] in
  let emit () = if !cur_len >= 0 then results := Array.sub cur 0 !cur_len :: !results in
  let depth = ref 0 in
  for vi = dlo to dhi - 1 do
    let vd = P.blit_entry driver vi scratch in
    depth := vd;
    for ci = 0 to ncur - 1 do
      let d = PC.match_probe (Array.unsafe_get cursors ci) scratch vd in
      if d < !depth then depth := d
    done;
    let d = !depth in
    if d >= 0 then
      if !cur_len < 0 then begin
        Array.blit scratch 0 cur 0 d;
        cur_len := d
      end
      else begin
        let lim = if d < !cur_len then d else !cur_len in
        let i = ref 0 in
        while !i < lim && Array.unsafe_get cur !i = Array.unsafe_get scratch !i do
          incr i
        done;
        if !i = d then () (* ancestor of (or equal to) the held candidate *)
        else begin
          if !i < !cur_len then emit ();
          (* else: extension of the held candidate — replace silently *)
          Array.blit scratch 0 cur 0 d;
          cur_len := d
        end
      end
  done;
  emit ();
  let seq = ref 0 and rand = ref 0 in
  Array.iter
    (fun c ->
      seq := !seq + PC.sequential_accesses c;
      rand := !rand + PC.random_accesses c)
    cursors;
  Xr_obs.Registry.Counter.add seq_probes_h !seq;
  Xr_obs.Registry.Counter.add rand_probes_h !rand;
  List.rev !results

(* Driver selection: rarest list first (stable on ties, so the plan
   compiler's pre-sorted ranges are a fixpoint). *)
let sort_by_length lists =
  List.stable_sort
    (fun (_, alo, ahi) (_, blo, bhi) -> Int.compare (ahi - alo) (bhi - blo))
    lists

(* Tiny-driver fallback. On highly selective queries (a driver of a
   handful of entries) the general kernel is overhead-bound: cursor
   records, galloping state and the probe-counter folds cost more than
   the scan itself, enough to lose to the boxed scan-eager engine
   (BENCH_slca.json recorded 0.82x on dblp ["year","bib"]). Below
   [tiny_threshold] driver entries the dispatch in {!compute_ranges} —
   and the plan compiler one layer up — picks this kernel instead: the
   same candidate stream and online prune, but partner lists probed
   with bare binary searches over position arrays, no cursors and no
   counter traffic.

   [probe] is [Cursor.Packed.match_probe]'s fused gallop-and-prefix
   search verbatim, operating on a bare position array instead of a
   cursor record — the probe sequences, final positions and returned
   depths coincide step for step, so the two kernels are equal by
   construction. *)
let default_tiny_threshold = 24

let tiny_threshold_v = Atomic.make default_tiny_threshold

let tiny_threshold () = Atomic.get tiny_threshold_v

let set_tiny_threshold n = Atomic.set tiny_threshold_v (max 0 n)

let tiny_scans_h =
  Xr_obs.Registry.Counter.no_labels
    (Xr_obs.Registry.Counter.family ~name:"xr_slca_tiny_scans_total"
       ~help:"SLCA scans dispatched to the tiny-driver fallback kernel" ())

let tiny_scans () = Xr_obs.Registry.Counter.value tiny_scans_h

let probe pk ~lo ~hi pos ci v vd =
  let p = Array.unsafe_get pos ci in
  if p >= hi then if hi = lo then -1 else P.common_prefix_len_sub pk (hi - 1) v vd
  else begin
    let r0 = P.compare_prefix_sub pk p v vd in
    if r0 land 3 >= 1 then begin
      (* entry at the position is already >= v: no movement *)
      let dr = r0 lsr 2 in
      let dl = if p > lo then P.common_prefix_len_sub pk (p - 1) v vd else -1 in
      if dl > dr then dl else dr
    end
    else begin
      let dl = ref (r0 lsr 2) and dr = ref (-1) in
      let prev = ref p and step = ref 1 in
      let bound = ref (-1) in
      while !bound < 0 do
        let cand = !prev + !step in
        if cand >= hi then bound := hi
        else begin
          let r = P.compare_prefix_sub pk cand v vd in
          if r land 3 >= 1 then begin
            dr := r lsr 2;
            bound := cand
          end
          else begin
            dl := r lsr 2;
            prev := cand;
            step := !step * 2
          end
        end
      done;
      let l = ref (!prev + 1) and h = ref !bound in
      while !l < !h do
        let mid = (!l + !h) lsr 1 in
        let r = P.compare_prefix_sub pk mid v vd in
        if r land 3 >= 1 then begin
          dr := r lsr 2;
          h := mid
        end
        else begin
          dl := r lsr 2;
          l := mid + 1
        end
      done;
      Array.unsafe_set pos ci !l;
      if !dl > !dr then !dl else !dr
    end
  end

(* The single-partner case — exactly the highly selective two-keyword
   queries the tiny dispatch exists for — specialized to straight-line
   code: no partner array, no closures, one position cell. At this
   scale ([{year bib}] times under 200ns end to end) the general
   version's list-to-array setup alone is a measurable fraction of the
   scan. Same candidate stream and online prune as [scan_tiny]. *)
let scan_tiny1 ~driver ~dlo ~dhi pk ~plo ~phi =
  let maxd = max 1 (max (P.max_depth driver) (P.max_depth pk)) in
  let scratch = Array.make maxd 0 in
  let cur = Array.make maxd 0 in
  let cur_len = ref (-1) in
  let results = ref [] in
  let pos = [| plo |] in
  for vi = dlo to dhi - 1 do
    let vd = P.blit_entry driver vi scratch in
    let d = probe pk ~lo:plo ~hi:phi pos 0 scratch vd in
    let d = if d < vd then d else vd in
    if d >= 0 then
      if !cur_len < 0 then begin
        Array.blit scratch 0 cur 0 d;
        cur_len := d
      end
      else begin
        let lim = if d < !cur_len then d else !cur_len in
        let i = ref 0 in
        while !i < lim && Array.unsafe_get cur !i = Array.unsafe_get scratch !i do
          incr i
        done;
        if !i = d then () (* ancestor of (or equal to) the held candidate *)
        else begin
          if !i < !cur_len then results := Array.sub cur 0 !cur_len :: !results;
          Array.blit scratch 0 cur 0 d;
          cur_len := d
        end
      end
  done;
  if !cur_len >= 0 then results := Array.sub cur 0 !cur_len :: !results;
  List.rev !results

let scan_tiny_n ~driver ~dlo ~dhi ~others =
  let arr = Array.of_list others in
  let ncur = Array.length arr in
  let pos = Array.map (fun (_, lo, _) -> lo) arr in
  let maxd =
    List.fold_left (fun acc (l, _, _) -> max acc (P.max_depth l)) (P.max_depth driver) others
  in
  let maxd = max maxd 1 in
  let scratch = Array.make maxd 0 in
  let cur = Array.make maxd 0 in
  let cur_len = ref (-1) in
  let results = ref [] in
  let emit () = if !cur_len >= 0 then results := Array.sub cur 0 !cur_len :: !results in
  let depth = ref 0 in
  for vi = dlo to dhi - 1 do
    let vd = P.blit_entry driver vi scratch in
    depth := vd;
    for ci = 0 to ncur - 1 do
      let pk, lo, hi = Array.unsafe_get arr ci in
      let d = probe pk ~lo ~hi pos ci scratch vd in
      if d < !depth then depth := d
    done;
    let d = !depth in
    if d >= 0 then
      if !cur_len < 0 then begin
        Array.blit scratch 0 cur 0 d;
        cur_len := d
      end
      else begin
        let lim = if d < !cur_len then d else !cur_len in
        let i = ref 0 in
        while !i < lim && Array.unsafe_get cur !i = Array.unsafe_get scratch !i do
          incr i
        done;
        if !i = d then () (* ancestor of (or equal to) the held candidate *)
        else begin
          if !i < !cur_len then emit ();
          Array.blit scratch 0 cur 0 d;
          cur_len := d
        end
      end
  done;
  emit ();
  List.rev !results

let scan_tiny ~driver:(driver, dlo, dhi) ~others () =
  Xr_obs.Registry.Counter.inc tiny_scans_h;
  match others with
  | [ (pk, plo, phi) ] -> scan_tiny1 ~driver ~dlo ~dhi pk ~plo ~phi
  | _ -> scan_tiny_n ~driver ~dlo ~dhi ~others

let compute_ranges (lists : (P.t * int * int) list) =
  if lists = [] || List.exists (fun (_, lo, hi) -> hi <= lo) lists then []
  else
    match sort_by_length lists with
    | [] -> []
    | ((_, dlo, dhi) as driver) :: others ->
      if dhi - dlo <= Atomic.get tiny_threshold_v then scan_tiny ~driver ~others ()
      else scan_chunk ~driver ~others ()

let compute (lists : P.t list) =
  compute_ranges (List.map (fun l -> (l, 0, P.length l)) lists)
