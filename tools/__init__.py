"""Development tooling for the repository; not part of the installed ``repro`` package."""
