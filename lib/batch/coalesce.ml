let requests_fam =
  Xr_obs.Registry.Counter.family ~name:"xr_coalesce_requests_total"
    ~help:"Requests through the single-flight admission layer" ~label_names:[ "role" ] ()

let leaders_h = Xr_obs.Registry.Counter.handle requests_fam [ "leader" ]

let followers_h = Xr_obs.Registry.Counter.handle requests_fam [ "follower" ]

let width_h =
  Xr_obs.Registry.Histogram.no_labels
    (Xr_obs.Registry.Histogram.family ~name:"xr_coalesce_width"
       ~help:"Requests served per coalesced flight (leader included)"
       ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |] ())

let helped_h =
  Xr_obs.Registry.Counter.no_labels
    (Xr_obs.Registry.Counter.family ~name:"xr_coalesce_helped_tasks_total"
       ~help:"Pool tasks executed by coalesced followers while waiting for their leader" ())

let leaders () = Xr_obs.Registry.Counter.value leaders_h

let followers () = Xr_obs.Registry.Counter.value followers_h

let helped () = Xr_obs.Registry.Counter.value helped_h

type outcome = Body of string | Failed of exn

type flight = {
  fm : Mutex.t;
  cv : Condition.t;
  mutable outcome : outcome option;
  mutable waiters : int;
}

type t = {
  lock : Mutex.t; (* guards [tbl] only; never held while rendering *)
  tbl : (string, flight) Hashtbl.t;
  window : int Atomic.t; (* microseconds: atomically updatable, enough precision *)
}

let window_ms t = float_of_int (Atomic.get t.window) /. 1000.

let set_window_ms t w = Atomic.set t.window (int_of_float (max 0. w *. 1000.))

let create ?(window_ms = 0.) () =
  let t = { lock = Mutex.create (); tbl = Hashtbl.create 32; window = Atomic.make 0 } in
  set_window_ms t window_ms;
  t

let in_flight t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  n

let run t ~key f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.tbl key with
  | Some fl ->
    Mutex.unlock t.lock;
    Mutex.lock fl.fm;
    fl.waiters <- fl.waiters + 1;
    (* A follower's wait is dead time on a whole domain — donate it to
       the pool: drain one queued task per round (shard renders of a
       multi-shard scatter), and only sleep on the condition
       when the pool has nothing to offer. No lost wakeup: the leader
       sets [outcome] and broadcasts under [fm], and we re-check
       [outcome] after re-acquiring [fm] before every wait. *)
    let rec await () =
      if fl.outcome = None then begin
        Mutex.unlock fl.fm;
        let worked =
          match Xr_pool.peek_global () with
          | Some pool -> Xr_pool.try_help pool
          | None -> false
        in
        if worked then Xr_obs.Registry.Counter.inc helped_h;
        Mutex.lock fl.fm;
        if (not worked) && fl.outcome = None then Condition.wait fl.cv fl.fm;
        await ()
      end
    in
    await ();
    let o = fl.outcome in
    Mutex.unlock fl.fm;
    Xr_obs.Registry.Counter.inc followers_h;
    (match o with
    | Some (Body b) -> (b, true)
    | Some (Failed e) -> raise e
    | None -> assert false)
  | None ->
    let fl =
      { fm = Mutex.create (); cv = Condition.create (); outcome = None; waiters = 0 }
    in
    Hashtbl.add t.tbl key fl;
    Mutex.unlock t.lock;
    (* The window runs before the render so late duplicates can still
       pile onto this flight; with the default 0 the leader proceeds
       immediately. *)
    let w = window_ms t in
    if w > 0. then Unix.sleepf (w /. 1000.);
    let out = try Body (f ()) with e -> Failed e in
    (* Close admission first: once the key is out of [tbl] a new
       arrival starts a fresh flight rather than reading a stale
       body. Existing followers still hold their [fl] reference. *)
    Mutex.lock t.lock;
    Hashtbl.remove t.tbl key;
    Mutex.unlock t.lock;
    Mutex.lock fl.fm;
    fl.outcome <- Some out;
    let w = fl.waiters in
    Condition.broadcast fl.cv;
    Mutex.unlock fl.fm;
    Xr_obs.Registry.Counter.inc leaders_h;
    Xr_obs.Registry.Histogram.observe width_h (float_of_int (w + 1));
    (match out with Body b -> (b, false) | Failed e -> raise e)
