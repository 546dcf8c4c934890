(* GC telemetry: pulled [xr_gc_*] families plus snapshot/delta capture
   for per-request attribution. [Gc.quick_stat] never forces a
   collection, so both scraping and per-request capture are safe on the
   serving path.

   The two read minor words differently. The exported counters sum
   every domain, because a scrape is answered by whichever worker
   domain takes it: they read the quick_stat field, which lags by at
   most one minor heap per live domain. [capture] measures one request
   on its own domain and reads [Gc.minor_words], which counts only the
   calling domain but includes its live arena — the quick_stat field
   only advances at minor collections, so a request that fits inside
   the current arena would read as zero. *)

let registered = Atomic.make false

let register ?registry () =
  if not (Atomic.exchange registered true) then begin
    let gauge name help pull =
      let fam = Registry.Gauge.family ?registry ~name ~help () in
      Registry.Gauge.set_pull (Registry.Gauge.no_labels fam) pull
    in
    let counter name help pull =
      let fam = Registry.Counter.family ?registry ~name ~help () in
      Registry.Counter.set_pull (Registry.Counter.no_labels fam) pull
    in
    gauge "xr_gc_heap_words" "Major heap size in words (Gc.quick_stat.heap_words)."
      (fun () -> float_of_int (Gc.quick_stat ()).Gc.heap_words);
    gauge "xr_gc_major_heap_words"
      "Largest major heap size reached, in words (top_heap_words)." (fun () ->
        float_of_int (Gc.quick_stat ()).Gc.top_heap_words);
    counter "xr_gc_minor_collections_total" "Minor collections since process start."
      (fun () -> float_of_int (Gc.quick_stat ()).Gc.minor_collections);
    counter "xr_gc_major_collections_total" "Major collection cycles since process start."
      (fun () -> float_of_int (Gc.quick_stat ()).Gc.major_collections);
    counter "xr_gc_compactions_total" "Heap compactions since process start." (fun () ->
        float_of_int (Gc.quick_stat ()).Gc.compactions);
    counter "xr_gc_minor_words_total" "Words allocated in the minor heap, all domains."
      (fun () -> (Gc.quick_stat ()).Gc.minor_words);
    counter "xr_gc_promoted_words_total" "Words promoted from the minor to the major heap."
      (fun () -> (Gc.quick_stat ()).Gc.promoted_words);
    counter "xr_gc_allocated_words_total"
      "Total words allocated (minor + major - promoted): the allocation rate base."
      (fun () ->
        let s = Gc.quick_stat () in
        s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  end

type snapshot = {
  s_minor_words : float;
  s_promoted_words : float;
  s_major_words : float;
  s_minor_collections : int;
  s_major_collections : int;
}

let capture () =
  let s = Gc.quick_stat () in
  {
    s_minor_words = Gc.minor_words ();
    s_promoted_words = s.Gc.promoted_words;
    s_major_words = s.Gc.major_words;
    s_minor_collections = s.Gc.minor_collections;
    s_major_collections = s.Gc.major_collections;
  }

type gc_delta = {
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_collections : int;
  d_major_collections : int;
}

let delta s0 =
  let s1 = capture () in
  {
    d_minor_words = s1.s_minor_words -. s0.s_minor_words;
    d_promoted_words = s1.s_promoted_words -. s0.s_promoted_words;
    d_major_words = s1.s_major_words -. s0.s_major_words;
    d_minor_collections = s1.s_minor_collections - s0.s_minor_collections;
    d_major_collections = s1.s_major_collections - s0.s_major_collections;
  }

let zero =
  {
    d_minor_words = 0.;
    d_promoted_words = 0.;
    d_major_words = 0.;
    d_minor_collections = 0;
    d_major_collections = 0;
  }

let add a b =
  {
    d_minor_words = a.d_minor_words +. b.d_minor_words;
    d_promoted_words = a.d_promoted_words +. b.d_promoted_words;
    d_major_words = a.d_major_words +. b.d_major_words;
    d_minor_collections = a.d_minor_collections + b.d_minor_collections;
    d_major_collections = a.d_major_collections + b.d_major_collections;
  }

let allocated_words d = d.d_minor_words +. d.d_major_words -. d.d_promoted_words
